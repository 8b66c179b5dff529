import pytest

from trailcounts import families, limits
from trailcounts.graphs import parse_edge_list

C4_TEXT = "1 2\n1 3\n2 4\n3 4\n"


@pytest.fixture
def c4():
    return parse_edge_list(C4_TEXT)


@pytest.fixture
def k2():
    return families.complete_graph(2)


@pytest.fixture
def k4():
    return families.complete_graph(4)


@pytest.fixture
def p3():
    return families.path_graph(3)


@pytest.fixture
def star3():
    return families.star_graph(3)


@pytest.fixture
def bowtie():
    return families.bowtie_graph()


@pytest.fixture
def petersen():
    return families.petersen_graph()


# A budget reaches the engines only through the environment, read at each call.
@pytest.fixture
def set_node_budget(monkeypatch):
    return lambda budget: monkeypatch.setenv(limits.NODE_BUDGET_ENV, str(budget))


@pytest.fixture
def set_term_budget(monkeypatch):
    return lambda budget: monkeypatch.setenv(limits.TERM_BUDGET_ENV, str(budget))
