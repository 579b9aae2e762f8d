"""Run ``latticeflow`` in-process with its module functions wrapped in spans.

    python3 benchmarks/trace_cli.py SPANS_JSON ONLY -- <latticeflow arguments>

Wraps the public functions of each module (plus the replica functions and
the replica map of ``estimators``), so timing happens from outside the
package and nothing under ``src/`` is touched. ONLY is ``all`` or a
comma-separated list of qualified names such as ``estimators._map_indices``
to wrap just those. Spans (function, start ns, end ns, parent span) are kept
in memory and written to SPANS_JSON when the command ends, together with the
import time of ``latticeflow.cli`` and the number of distinct box shapes
passed to ``lattice.edges_in_box``. Exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter, perf_counter_ns

MODULES = ("lattice", "capacity", "flow", "cuts", "junction", "estimators", "verify", "cli")
PRIVATE_HOOKS = {"estimators._psi_replica", "estimators._nu_replica", "estimators._map_indices"}


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.shapes: set = set()

    def wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self.stack
        shapes = self.shapes if qualname == "lattice.edges_in_box" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if shapes is not None:
                shapes.add((args[0].dims, args[0].height))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent)

        return traced


def _targets(module, only):
    prefix = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        qualname = f"{prefix}.{name}"
        if only is not None:
            if qualname not in only:
                continue
        elif name.startswith("_") and qualname not in PRIVATE_HOOKS:
            continue
        if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module.__name__:
            yield qualname, obj


def install(recorder: SpanRecorder, only) -> None:
    """Wrap the target functions and rebind every module-level name bound to one."""
    package = importlib.import_module("latticeflow")
    modules = [importlib.import_module(f"latticeflow.{m}") for m in MODULES]
    wrapped = {}
    for module in modules:
        for qualname, fn in list(_targets(module, only)):
            wrapped[id(fn)] = recorder.wrap(qualname, fn)
    for module in [package, *modules]:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])


def main(argv: list[str]) -> int:
    spans_path, only_spec, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS_JSON ONLY -- <latticeflow arguments>")
    only = None if only_spec == "all" else set(only_spec.split(","))
    t0 = perf_counter()
    cli = importlib.import_module("latticeflow.cli")
    import_s = perf_counter() - t0
    recorder = SpanRecorder()
    install(recorder, only)
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "shapes": len(recorder.shapes),
                    "names": recorder.names,
                    "spans": recorder.spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
