"""Child entry point: run ``repro.cli.main(argv)``, optionally traced.

Usage::

    python shim.py ARGV...                  # untraced
    python shim.py --trace OUT.json ARGV... # traced

Every benchmark run is a fresh interpreter started on this file, so the
untraced path costs one script load and nothing else.  With ``--trace``
the shim patches the public functions in :data:`HOOKS` at the binding
each caller uses (a module global or a class attribute).  Each hook
accumulates call count, total and self time (total minus the time of
hooked calls nested inside it) and, where the hook names one, a count
of units of work.  Hooks marked ``span`` also keep every call (per day,
batch, shard or file) as a span with start, end and parent.
Everything stays in memory and is written to OUT.json when ``main``
returns or raises.

A target is patched right after the import that first loads its
module, so the CLI's lazy imports still happen inside ``main`` and are
timed there as the ``cli.import`` layer.  A target that no longer
exists is reported as missing; it does not stop the run.

The file is self-contained on purpose: it runs as a script, imports
only the standard library before ``repro``, and drops its own
directory from ``sys.path`` so no benchmark module can shadow one of
the program's imports.
"""

from __future__ import annotations

import builtins
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass

if sys.path and os.path.abspath(sys.path[0]) == os.path.dirname(
    os.path.abspath(__file__)
):
    del sys.path[0]


def _size(result) -> int:
    return len(result)


def _one(result) -> int:
    return 1


def _truthy(result) -> int:
    return 1 if result else 0


def _not_none(result) -> int:
    return 0 if result is None else 1


def _denied(verdict) -> int:
    return 0 if verdict.action.name == "ALLOW" else 1


def _bytes_written(written) -> int:
    return sum(os.path.getsize(path) for path, _ in written)


@dataclass(frozen=True)
class Hook:
    """One patched callable.

    ``target`` is ``module:attribute`` or ``module:Class.method``;
    ``units`` maps a call's return value (for a generator, each yielded
    item) to a count of work units.
    """

    target: str
    layer: str
    span: bool = False
    generator: bool = False
    units: object = None

    @property
    def module(self) -> str:
        return self.target.partition(":")[0]


#: The traced boundaries.  Layer names are module names; calls made
#: once per record (``span=False``) are only aggregated.
HOOKS = (
    Hook("repro.cli:main", "cli", span=True),
    Hook("repro.dispatch:run_distributed", "dispatch.coordinator",
         span=True),
    Hook("repro.engine.simulate:scenario_context", "engine.context",
         span=True),
    Hook("repro.engine.simulate:run_sharded", "engine", span=True),
    Hook("repro.engine.analyze:run_sharded", "engine", span=True),
    Hook("repro.engine.simulate:simulate_sink_shard", "engine", span=True,
         units=_one),
    Hook("repro.engine.analyze:analyze_shard", "engine", span=True,
         units=_one),
    Hook("repro.pipeline.sinks:GroupedElffSink.merge", "engine.merge",
         span=True),
    Hook("repro.pipeline.sinks:FrameSink.merge", "engine.merge", span=True),
    Hook("repro.analysis.streaming:StreamingAnalysis.merge", "engine.merge",
         span=True),
    Hook("repro.workload.generator:TrafficGenerator.generate_day",
         "workload", span=True, units=_size),
    Hook("repro.proxy.fleet:ProxyFleet.process", "proxy.fleet", units=_one),
    Hook("repro.proxy.fleet:RoutingPolicy.route", "proxy.routing"),
    Hook("repro.proxy.sg9000:SG9000.process", "proxy.sg9000"),
    Hook("repro.policy.engine:PolicyEngine.evaluate", "policy.engine",
         units=_denied),
    Hook("repro.policy.errors:ErrorModel.sample", "policy.errors",
         units=_not_none),
    Hook("repro.policy.cache:CacheModel.lookup", "policy.cache",
         units=_truthy),
    Hook("repro.policy.cache:CacheModel.exception_cleared", "policy.cache"),
    Hook("repro.frame.batch:RecordBatch.from_records", "frame.from_records",
         span=True),
    Hook("repro.frame.batch:RecordBatch.to_rows", "frame.to_rows",
         span=True),
    Hook("repro.pipeline.stages:AnonymizeStage.anonymize",
         "pipeline.anonymize"),
    Hook("repro.pipeline.stages:AnonymizeStage.anonymize_batch",
         "pipeline.anonymize", span=True),
    Hook("repro.pipeline.sinks:GroupedElffSink.add", "pipeline.elff_sink"),
    Hook("repro.pipeline.sinks:GroupedElffSink.add_batch",
         "pipeline.elff_sink", span=True),
    Hook("repro.pipeline.sinks:GroupedElffSink.write_dir",
         "logmodel.elff_write", span=True, units=_bytes_written),
    Hook("repro.pipeline.sources:read_log", "logmodel.elff_read",
         generator=True, units=_one),
    Hook("repro.pipeline.sources:read_log_batches", "logmodel.elff_read",
         span=True, generator=True, units=_size),
    Hook("repro.logmodel.record:LogRecord.from_row", "logmodel.elff_read"),
    Hook("repro.analysis.streaming:registered_domain", "net.url"),
    Hook("repro.analysis.streaming:registered_domains", "net.url",
         span=True),
    Hook("repro.analysis.streaming:censor_mask", "logmodel.classify",
         span=True),
    Hook("repro.analysis.streaming:StreamingAnalysis.add",
         "analysis.streaming"),
    Hook("repro.analysis.streaming:StreamingAnalysis.add_batch",
         "analysis.streaming", span=True),
    Hook("repro.pipeline.sinks:FrameSink.add", "pipeline.frame_sink"),
    Hook("repro.pipeline.sinks:FrameSink.add_batch", "pipeline.frame_sink",
         span=True),
    Hook("repro.pipeline.sinks:FrameSink.frame", "pipeline.frame_sink",
         span=True),
    Hook("repro.engine.simulate:assemble_datasets_from_frame",
         "datasets.assemble", span=True),
    Hook("repro.analysis.report:build_report", "analysis.report", span=True),
)

IMPORT_KEY = "builtins:__import__"
IMPORT_LAYER = "cli.import"


def _resolve(target: str):
    """``(owner, name, static attribute)`` for a loaded target; raises
    AttributeError when the attribute path does not exist."""
    module_name, _, path = target.partition(":")
    owner = sys.modules[module_name]
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


class Tracer:
    """Self-time accounting over nested hooked calls."""

    def __init__(self, hooks=HOOKS):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.pending = list(hooks)
        self.missing: list[str] = []
        self.stats: dict[str, list] = {}  # key -> [calls, total, self, units]
        self.layers: dict[str, str] = {}
        self.stack: list[list] = []  # [child seconds, span index or None]
        self.spans: list[list] = []  # [key, start, end, parent]
        self.import_depth = 0
        self.original_import = builtins.__import__

    # -- accounting --------------------------------------------------------

    def register(self, key: str, layer: str) -> list:
        self.layers[key] = layer
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def enter(self, span: bool) -> tuple[float, list]:
        frame = [0.0, None]
        if span:
            parent = next(
                (f[1] for f in reversed(self.stack) if f[1] is not None),
                None,
            )
            frame[1] = len(self.spans)
            self.spans.append([None, 0.0, 0.0, parent])
        self.stack.append(frame)
        return self.clock(), frame

    def leave(self, key: str, stat: list, start: float, frame: list,
              units: int) -> None:
        end = self.clock()
        self.stack.pop()
        elapsed = end - start
        if self.stack:
            self.stack[-1][0] += elapsed
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[0]
        stat[3] += units
        if frame[1] is not None:
            self.spans[frame[1]][:3] = [
                key, start - self.origin, end - self.origin
            ]

    # -- patching ----------------------------------------------------------

    def wrap(self, hook: Hook, func):
        key, units = hook.target, hook.units
        stat = self.register(key, hook.layer)

        if hook.generator:
            def traced_generator(*args, **kwargs):
                inner = func(*args, **kwargs)
                try:
                    while True:
                        start, frame = self.enter(hook.span)
                        try:
                            item = next(inner)
                        except StopIteration:
                            self.leave(key, stat, start, frame, 0)
                            return
                        except BaseException:
                            self.leave(key, stat, start, frame, 0)
                            raise
                        self.leave(key, stat, start, frame,
                                   units(item) if units else 0)
                        yield item
                finally:
                    inner.close()

            return traced_generator

        def traced(*args, **kwargs):
            start, frame = self.enter(hook.span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.leave(key, stat, start, frame, 0)
                raise
            self.leave(key, stat, start, frame,
                       units(result) if units else 0)
            return result

        return traced

    def patch_loaded(self) -> None:
        """Patch every pending hook whose module is now loaded."""
        waiting = []
        for hook in self.pending:
            if hook.module not in sys.modules:
                waiting.append(hook)
                continue
            try:
                owner, name, static = _resolve(hook.target)
            except AttributeError:
                self.missing.append(hook.target)
                continue
            if isinstance(static, (classmethod, staticmethod)):
                patched = type(static)(self.wrap(hook, static.__func__))
            else:
                patched = self.wrap(hook, static)
            setattr(owner, name, patched)
        self.pending = waiting

    def trace_imports(self) -> None:
        """Time every import statement as the ``cli.import`` layer and
        patch hook targets once the outermost import has finished (so
        no module is patched half-initialized)."""
        original = self.original_import
        stat = self.register(IMPORT_KEY, IMPORT_LAYER)

        def traced_import(name, globals=None, locals=None, fromlist=(),
                          level=0):
            start, frame = self.enter(False)
            self.import_depth += 1
            try:
                module = original(name, globals, locals, fromlist, level)
            finally:
                self.import_depth -= 1
                if not self.import_depth and self.pending:
                    self.patch_loaded()
                self.leave(IMPORT_KEY, stat, start, frame, 0)
            return module

        builtins.__import__ = traced_import

    def report(self) -> dict:
        """The trace; a hook never patched is ``missing`` only when its
        target cannot be found (importing its module now, untimed), and
        ``unused`` when the command never loaded it."""
        builtins.__import__ = self.original_import
        unused = []
        for hook in self.pending:
            try:
                importlib.import_module(hook.module)
                _resolve(hook.target)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)
            else:
                unused.append(hook.target)
        return {
            "hooks": {
                key: {
                    "layer": self.layers[key],
                    "calls": calls,
                    "total_s": total,
                    "self_s": self_s,
                    "units": units,
                }
                for key, (calls, total, self_s, units) in self.stats.items()
            },
            "spans": [span for span in self.spans if span[0] is not None],
            "missing": sorted(self.missing),
            "unused": sorted(unused),
        }


def main(args: list[str]) -> int:
    if args[:1] != ["--trace"]:
        from repro.cli import main as repro_main

        return repro_main(args)
    trace_path, args = args[1], args[2:]
    tracer = Tracer()
    tracer.trace_imports()
    import repro.cli

    try:
        return repro.cli.main(args)
    finally:
        report = tracer.report()
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
