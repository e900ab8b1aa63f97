from fractions import Fraction
from pathlib import Path

import pytest

from plektonlab import cones
from plektonlab.sectors import AnyonModel, CyclotomicPhase

ASSETS = Path(__file__).resolve().parent.parent / "assets"


@pytest.fixture
def fermion():
    return AnyonModel(2, CyclotomicPhase.from_pair(1, 2),
                      CyclotomicPhase.from_pair(1, 4), Fraction(1, 2), mass=1.0)


@pytest.fixture
def z3():
    return AnyonModel(3, CyclotomicPhase.from_pair(1, 3),
                      CyclotomicPhase.from_pair(2, 3), Fraction(1, 3), mass=1.0)


@pytest.fixture
def boson():
    return AnyonModel(None, CyclotomicPhase.from_pair(0, 1),
                      CyclotomicPhase.from_pair(0, 1), Fraction(0), mass=1.0)


@pytest.fixture
def semion():
    # Z_4 with omega = i
    return AnyonModel(4, CyclotomicPhase.from_pair(1, 4),
                      CyclotomicPhase.from_pair(1, 8), Fraction(1, 4))


@pytest.fixture
def refereed_paths(monkeypatch):
    """Every region the package builds through `cones._path`, rebuilt through
    the public `ConePath(...)`, whose row rules `_path` does not run.

    Yields ``(built, refused)``: the paths the public constructor accepted,
    and (path, error) for each one it refused."""
    real, built, refused = cones._path, [], []

    def refereed(rows, arc, kind):
        path = real(rows, arc, kind)
        try:
            again = cones.ConePath(path.apex, arc, kind, path.normals, path.corners)
        except ValueError as exc:
            refused.append((path, exc))
        else:
            assert again.rows.tobytes() == path.rows.tobytes()
            built.append(path)
        return path

    monkeypatch.setattr(cones, "_path", refereed)
    yield built, refused
