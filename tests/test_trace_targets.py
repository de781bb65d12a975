"""The benchmark's tracer wraps functions by (owner, attribute name); a
refactor that moves or drops one of them should fail here, not only in a
traced benchmark run."""

from ciphermind import codec, detmath, model, provisioning, scheduler, trainer, transport
from perfbench import tracing

MODULES = {"model": model, "detmath": detmath, "codec": codec, "trainer": trainer,
           "provisioning": provisioning, "scheduler": scheduler,
           "transport": transport}


def test_every_traced_name_is_defined_on_its_owner():
    missing = [name for owner, attr, name, _ in tracing.targets(MODULES)
               if attr not in vars(owner)]
    assert not missing
