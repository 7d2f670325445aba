import sys
from pathlib import Path

import pytest

# a run leaves no bytecode under src/, where it would change what the
# benchmark measures (CI sets PYTHONDONTWRITEBYTECODE for the same reason)
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).parent))

from dualforget.parser import parse_theory

THEORY_DIR = Path(__file__).parent.parent / "theories"


def load_theory(name: str):
    path = THEORY_DIR / name
    return parse_theory(path.read_text(encoding="utf-8"), name=path.stem)


@pytest.fixture
def theories_dir() -> Path:
    return THEORY_DIR
