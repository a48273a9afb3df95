"""Public facade: compile IdLite source and run it on any backend.

    from repro import compile_source, SimConfig

    program = compile_source('''
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n {
                for j = 1 to n { A[i, j] = i * n + j; }
            }
            return A;
        }
    ''')
    result = program.run_pods((8,), num_pes=4)
    print(result.value.to_nested(), result.finish_time_s)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.common.config import SimConfig
from repro.graph import build_graph, ir, validate_graph
from repro.lang import ast_nodes
from repro.lang.parser import parse
from repro.partitioner import PartitionReport, partition, partition_none
from repro.translator import isa, translate


def _deprecated_shim(old: str, backend: str) -> None:
    warnings.warn(
        f"Program.{old}() is deprecated; use "
        f"Program.run(..., backend={backend!r}) (repro.backend registry)",
        DeprecationWarning, stacklevel=3)


@dataclass
class Program:
    """A compiled IdLite program, runnable on every backend."""

    source: str
    ast: ast_nodes.Program
    graph: ir.ProgramGraph
    pods: isa.PodsProgram
    partition_report: PartitionReport
    entry: str = "main"

    # -- backends -----------------------------------------------------

    def run(self, args: tuple = (), *, backend: str = "sim",
            parallelism: int | None = None, config=None, faults=None,
            **kwargs):
        """Execute on any registered backend; the uniform surface.

        ``backend`` is a name from the :mod:`repro.backend` registry
        (``sim``/``pods``, ``parallel``, ``seq``/``sequential``,
        ``static``); the return value is a
        :class:`repro.backend.BackendResult` whatever the substrate.
        ``parallelism`` is the PE/worker count (``None`` defers to
        ``config``); ``config`` and ``faults`` are backend-specific but
        validated uniformly; extra keyword arguments pass through to the
        backend (e.g. ``timeout_s``/``page_size`` on ``parallel``).
        """
        from repro.backend import get_backend

        return get_backend(backend).run(self, args,
                                        parallelism=parallelism,
                                        config=config, faults=faults,
                                        **kwargs)

    # -- deprecated per-backend shims ---------------------------------
    # Retained for source compatibility only; each is a thin adapter
    # onto the Backend registry that returns the backend-native result
    # object (``BackendResult.raw``) the old signature promised.

    def run_pods(self, args: tuple = (), num_pes: int = 1,
                 config: SimConfig | None = None):
        """Deprecated: use ``run(args, backend="sim", ...)``."""
        _deprecated_shim("run_pods", "sim")
        from repro.backend import get_backend

        parallelism = num_pes if num_pes != 1 else None
        return get_backend("sim").run(self, args, parallelism=parallelism,
                                      config=config).raw

    def run_sequential(self, args: tuple = ()):
        """Deprecated: use ``run(args, backend="seq")``."""
        _deprecated_shim("run_sequential", "seq")
        from repro.backend import get_backend

        return get_backend("seq").run(self, args).raw

    def run_static(self, args: tuple = (), num_pes: int = 1,
                   config: SimConfig | None = None):
        """Deprecated: use ``run(args, backend="static", ...)``."""
        _deprecated_shim("run_static", "static")
        from repro.backend import get_backend

        parallelism = None if config is not None else num_pes
        return get_backend("static").run(self, args,
                                         parallelism=parallelism,
                                         config=config).raw

    # -- introspection ---------------------------------------------------

    def listing(self) -> str:
        """SP assembly listing (after translation + partitioning)."""
        return self.pods.listing()

    def graph_dump(self) -> str:
        return self.graph.dump()

    def graph_text(self) -> str:
        """Figure 2-style indented scope view of the dataflow graph."""
        from repro.graph.render import to_text

        return to_text(self.graph)

    def graph_dot(self) -> str:
        """Graphviz DOT rendering of the dataflow graph."""
        from repro.graph.render import to_dot

        return to_dot(self.graph)


def compile_source(source: str, entry: str = "main",
                   distribute: bool = True,
                   optimize: bool = False,
                   rf_placement: str = "outer",
                   aggressive: bool = False) -> Program:
    """Compile IdLite source through the full PODS pipeline.

    Stages (paper Figure 3): parse -> semantic analysis -> dataflow graph
    -> LCD analysis + Partitioner (unless ``distribute=False``) ->
    Translator -> SP templates.

    ``optimize=True`` adds loop-invariant hoisting; the default is off
    to match the paper's "no optimization techniques" configuration.
    """
    tree = parse(source)
    graph = build_graph(tree, entry=entry)
    if distribute:
        report = partition(graph, placement=rf_placement,
                           aggressive=aggressive)
    else:
        report = partition_none(graph)
    if optimize:
        from repro.graph.optimize import optimize_graph

        optimize_graph(graph)
    validate_graph(graph)
    pods = translate(graph)
    pods.name = entry
    return Program(source=source, ast=tree, graph=graph, pods=pods,
                   partition_report=report, entry=entry)
