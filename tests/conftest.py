import pytest

from siegelstrata import build_context


@pytest.fixture(scope="session")
def ctx1():
    return build_context(1, 3)


@pytest.fixture(scope="session")
def ctx2():
    return build_context(2, 3)


@pytest.fixture(scope="session")
def ctx3():
    return build_context(3, 3)


@pytest.fixture(scope="session")
def ctx4():
    return build_context(4, 3)
