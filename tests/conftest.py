import pytest

from qflag.cartan import FlagSpec, LieType
from qflag.peterweyl import PWAlgebra


@pytest.fixture(scope="session")
def algebras():
    """Shared PWAlgebra instances per Lie type (module caches are reused)."""
    cache = {}

    def get(name):
        lie = LieType.parse(name) if isinstance(name, str) else name
        if lie not in cache:
            cache[lie] = PWAlgebra(lie)
        return cache[lie]

    return get


@pytest.fixture(scope="session")
def flag_of():
    return FlagSpec.parse


@pytest.fixture
def factored(monkeypatch):
    """The size of every block a BlockInverse factors, in factoring order."""
    from qflag.linalg import BlockInverse
    calls = []
    original = BlockInverse._factor

    def counted(self, k):
        calls.append(len(self._blocks[k][1]))
        return original(self, k)

    monkeypatch.setattr(BlockInverse, "_factor", counted)
    return calls
