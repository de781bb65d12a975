"""The benchmark's tracer wraps functions by (owner, attribute name); a
refactor that moves or drops one of them should fail here, not only in a
traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import perfbench
from ciphermind import codec, detmath, model, provisioning, scheduler, trainer, transport
from perfbench import tracing

MODULES = {"model": model, "detmath": detmath, "codec": codec, "trainer": trainer,
           "provisioning": provisioning, "scheduler": scheduler,
           "transport": transport}


def test_every_traced_name_is_defined_on_its_owner():
    missing = [name for owner, attr, name, _ in tracing.targets(MODULES)
               if attr not in vars(owner)]
    assert not missing


def _workload_uses():
    """(module, attribute, call or None) for every ``X.attr`` in
    perfbench/workloads.py where X is a ciphermind module it imports, and
    (module, name, None) for every name it imports from one."""
    tree = ast.parse((Path(perfbench.__file__).parent / "workloads.py").read_text())
    aliases, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ciphermind":
            for a in node.names:
                aliases[a.asname or a.name] = importlib.import_module(f"ciphermind.{a.name}")
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("ciphermind."):
            uses += [(importlib.import_module(node.module), a.name, None) for a in node.names]
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append((aliases[node.value.id], node.attr, calls.get(id(node))))
    return uses


def test_every_ciphermind_name_the_workloads_use_resolves():
    # tier-1 also runs perfbench/tests, which drive whole conversations, but
    # only at a tiny config with a zero-step fine-tune: the workloads call
    # init_parameters, generate_registry, provision, Session, the stream
    # constructors and the scheduler directly, and a refactor that renames
    # one or changes its parameters should fail here, by name, at every call
    # site, whichever ones those tiny runs reach
    uses = _workload_uses()
    assert {"init_parameters", "provision", "Session", "layer_of"} <= {a for _, a, _ in uses}
    broken = []
    for module, attr, call in uses:
        if not hasattr(module, attr):
            broken.append(f"{module.__name__}.{attr} is missing")
        elif call is not None and all(kw.arg for kw in call.keywords):
            try:
                signature = inspect.signature(getattr(module, attr))
            except ValueError:  # exception classes carry no signature
                continue
            try:
                signature.bind(*call.args, **{kw.arg: None for kw in call.keywords})
            except TypeError as e:
                broken.append(f"{module.__name__}.{attr}: {e}")
    assert not broken
