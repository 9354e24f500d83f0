"""Documentation coverage: every public item carries a docstring."""

import importlib
import inspect
import pkgutil

import repro

IGNORED_MEMBER_PREFIXES = ("_",)


def iter_repro_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


def test_every_module_has_docstring():
    missing = [
        module.__name__
        for module in iter_repro_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_documented():
    missing = []
    for module in iter_repro_modules():
        for name, obj in vars(module).items():
            if name.startswith(IGNORED_MEMBER_PREFIXES):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at the definition site
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
    assert not missing, f"public items without docstrings: {missing}"


def _modules_with_all():
    return [m for m in iter_repro_modules() if hasattr(m, "__all__")]


def test_all_lists_no_private_name():
    private = [
        f"{module.__name__}.{name}"
        for module in _modules_with_all()
        for name in module.__all__
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not private, f"private names exported via __all__: {private}"


def test_all_lists_every_public_definition():
    """A module that declares ``__all__`` lists every public class and
    function it defines (re-exports are the defining module's concern)."""
    unlisted = []
    for module in _modules_with_all():
        for name, obj in vars(module).items():
            if name.startswith(IGNORED_MEMBER_PREFIXES) or name in module.__all__:
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                unlisted.append(f"{module.__name__}.{name}")
    assert not unlisted, f"public definitions missing from __all__: {unlisted}"


def test_public_methods_documented():
    missing = []
    for module in iter_repro_modules():
        for class_name, cls in vars(module).items():
            if class_name.startswith("_") or not inspect.isclass(cls):
                continue
            if getattr(cls, "__module__", None) != module.__name__:
                continue
            for method_name, method in vars(cls).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not (method.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{class_name}.{method_name}")
    assert not missing, f"public methods without docstrings: {missing}"
