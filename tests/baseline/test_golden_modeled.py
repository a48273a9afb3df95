"""Golden table of the modeled outputs of the seq and static substrates.

Every app of the conformance matrix, plus SIMPLE 32x32, pinned exactly:
seq ``time_us`` (as ``float.hex``) and ``op_count``; static ``time_us``,
``pe_times`` and ``remote_misses`` at 1, 2 and 8 PEs, and at 8 PEs with
the page cache off and with 8-element pages.  Modeled time is
the paper's instrument, so an interpreter change that reorders a single
charge (float addition does not associate) fails here.

The table was generated by the tree-walking interpreter the lowered one
replaced.  Regenerate it only for an intended change of the cost model,
and say so in EXPERIMENTS.md::

    PYTHONPATH=src python -m tests.baseline.test_golden_modeled
"""

import json
import pathlib

import pytest

from repro.backend import get_backend
from repro.common.config import MachineConfig, SimConfig
from tests.conformance.matrix import APPS

GOLDEN = pathlib.Path(__file__).with_name("golden_modeled.json")
STATIC_PES = (1, 2, 8)
# static@8 under non-default machines: the cache-off and short-page
# branches of the array hooks.
STATIC_VARIANTS = {
    "static@8/nocache": MachineConfig(num_pes=8, cache_enabled=False),
    "static@8/page8": MachineConfig(num_pes=8, page_size=8),
}


def _cases():
    from repro.apps import compile_simple

    cases = dict(APPS)
    cases["simple-32x32"] = (lambda: compile_simple(), (32, 1))
    return cases


def measure(name: str) -> dict:
    """The modeled outputs of one case, in the table's encoding."""
    thunk, args = _cases()[name]
    program = thunk()
    seq = get_backend("seq").run(program, args).raw
    row = {"seq": {"time_us": seq.time_us.hex(), "op_count": seq.op_count}}
    runs = {f"static@{pes}": {"parallelism": pes} for pes in STATIC_PES}
    for key, machine in STATIC_VARIANTS.items():
        runs[key] = {"config": SimConfig(machine=machine)}
    for key, kwargs in runs.items():
        st = get_backend("static").run(program, args, **kwargs).raw
        row[key] = {
            "time_us": st.time_us.hex(),
            "pe_times": [t.hex() for t in st.pe_times],
            "remote_misses": st.remote_misses,
        }
    return row


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_table_covers_every_case():
    assert sorted(_golden()) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_modeled_outputs_match_golden(name):
    assert measure(name) == _golden()[name]


if __name__ == "__main__":
    table = {name: measure(name) for name in sorted(_cases())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(table)} cases)")
