import os
from pathlib import Path

import pytest

from symbed.graph import from_arcs

DATA_DIR = Path(os.environ.get("SYMBED_DATA_DIR",
                               Path(__file__).resolve().parent.parent / "data"))


def dataset_paths(name):
    base = DATA_DIR / name
    return base / "edges.tsv", base / "labels.tsv"


def require_dataset(name):
    """Skip the calling test unless the named benchmark dataset is on disk."""
    edges, labels = dataset_paths(name)
    if not edges.is_file() or not labels.is_file():
        pytest.skip(f"{name} dataset not found: this test needs {edges} and "
                    f"{labels} (set SYMBED_DATA_DIR to read <dir>/{name}/ "
                    f"instead of data/{name}/)")
    return edges, labels


@pytest.fixture
def path3():
    """Undirected path 0 - 1 - 2."""
    return from_arcs(3, [0, 1], [1, 2], directed=False)


@pytest.fixture
def two_cycle():
    """Directed 2-cycle 0 <-> 1."""
    return from_arcs(2, [0, 1], [1, 0], directed=True)


@pytest.fixture
def star4():
    """Undirected star: center 0, leaves 1..3."""
    return from_arcs(4, [0, 0, 0], [1, 2, 3], directed=False)
