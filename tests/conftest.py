import pytest

from gen import tutorial_scenario


@pytest.fixture
def tutorial():
    return tutorial_scenario()


@pytest.fixture
def tutorial_bundle(tutorial, tmp_path):
    from asbench import write_scenario

    path = tmp_path / "tutorial"
    write_scenario(tutorial, path)
    return path
