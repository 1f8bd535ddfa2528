"""The package namespace: each public name and each submodule is imported on first use."""

import importlib
import pkgutil

import pytest

import uncertainty_lab as ul

SUBMODULES = sorted(module.name for module in pkgutil.iter_modules(ul.__path__))


@pytest.fixture
def fresh(monkeypatch):
    """The package with no public name or submodule bound yet; put back afterwards."""
    for name in [*ul.__all__, *SUBMODULES]:
        if name != "__version__":
            monkeypatch.delitem(vars(ul), name, raising=False)
    return ul


@pytest.mark.parametrize("name", sorted(set(ul.__all__) - {"__version__"}))
def test_a_public_name_is_its_defining_modules_object(fresh, name):
    value = getattr(fresh, name)
    defining = importlib.import_module(value.__module__)  # an instance's: its class's module
    assert defining.__name__.startswith("uncertainty_lab.")
    assert getattr(defining, name) is value


def test_a_resolved_name_is_a_plain_attribute(fresh, monkeypatch):
    real, calls = fresh.__getattr__, []

    def counted(name):
        calls.append(name)
        return real(name)

    monkeypatch.setattr(fresh, "__getattr__", counted)
    first = fresh.evaluate
    assert calls == ["evaluate"] and vars(fresh)["evaluate"] is first
    assert fresh.evaluate is first and calls == ["evaluate"]


def test_every_submodule_is_an_attribute(fresh):
    assert {"cli", "core", "relations"} <= set(SUBMODULES)
    for name in SUBMODULES:
        assert getattr(fresh, name) is importlib.import_module(f"uncertainty_lab.{name}")


def test_dir_lists_every_public_name_and_submodule(fresh):
    assert set(fresh.__all__) | set(SUBMODULES) <= set(dir(fresh))


def test_star_import_binds_exactly_all(fresh):
    scope: dict = {}
    exec("from uncertainty_lab import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(fresh.__all__)
    assert scope["find"] is importlib.import_module("uncertainty_lab.finder").find


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ul.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from uncertainty_lab import no_such_name  # noqa: F401
