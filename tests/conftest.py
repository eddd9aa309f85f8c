import pytest

from inducibility.objectives import ObjectiveSpec


@pytest.fixture(scope="session")
def spec_c4():
    return ObjectiveSpec.partite_density([2, 2])


@pytest.fixture(scope="session")
def spec_k12():
    return ObjectiveSpec.partite_density([2, 1])


@pytest.fixture(scope="session")
def spec_k2111():
    return ObjectiveSpec.partite_density([2, 1, 1, 1])


@pytest.fixture(scope="session")
def spec_k311():
    return ObjectiveSpec.partite_density([3, 1, 1])


@pytest.fixture(scope="session")
def spec_k33():
    return ObjectiveSpec.partite_density([3, 3])


@pytest.fixture(scope="session")
def spec_k43():
    return ObjectiveSpec.partite_density([4, 3])


@pytest.fixture(scope="session")
def spec_k222():
    return ObjectiveSpec.partite_density([2, 2, 2])


@pytest.fixture(scope="session")
def report_k2111():
    from inducibility.certificates import certify_k2111
    return certify_k2111()


@pytest.fixture(scope="session")
def report_k311():
    from inducibility.certificates import certify_k311
    return certify_k311()
