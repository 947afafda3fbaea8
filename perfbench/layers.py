"""Per-layer spans timed from outside the program.

A :class:`LayerTracer` wraps public functions and methods of the ``repro``
layers (listed in :data:`TARGETS`) for the duration of a ``with`` block and
restores every original object on exit.  Each wrapped call is a span; the
tracer keeps, per metric name, the number of calls, their total time and
their self time (total minus the time covered by nested wrapped calls on
the same thread).  Nothing inside ``src/`` is changed: module-level
functions are replaced in every ``repro`` module (and benchmark module)
that holds them, methods on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: (metric prefix, module, attribute): ``Class.method`` or a function name.
#: Several targets may share one prefix; their spans are summed.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("ripping.rip", "repro.ripping.ripper", "GuiRipper.rip"),
    ("topology.decycle", "repro.topology.decycle", "decycle"),
    ("topology.externalize", "repro.topology.externalize", "plan_externalization"),
    ("topology.forest", "repro.topology.forest", "build_forest"),
    ("topology.core", "repro.topology.core", "extract_core"),
    ("topology.token_estimate", "repro.topology.core", "CoreTopology.token_estimate"),
    ("apps.build", "repro.apps.word", "WordApp.__init__"),
    ("apps.build", "repro.apps.excel", "ExcelApp.__init__"),
    ("apps.build", "repro.apps.powerpoint", "PowerPointApp.__init__"),
    ("apps.build", "repro.apps.synthetic", "SyntheticApp.__init__"),
    ("dmi.construct", "repro.dmi.interface", "DMI.__init__"),
    ("dmi.visit", "repro.dmi.interface", "DMI.visit"),
    ("dmi.context_tokens", "repro.dmi.interface", "DMI.context_token_breakdown"),
    ("dmi.match", "repro.dmi.matching", "FuzzyControlMatcher.find"),
    ("dmi.match", "repro.dmi.matching", "FuzzyControlMatcher.find_by_label"),
    ("llm.plan", "repro.llm.planner", "SemanticPlanner.plan_declarative"),
    ("llm.plan", "repro.llm.planner", "SemanticPlanner.plan_imperative"),
    ("agent.run_task", "repro.agent.host_agent", "HostAgent.run_task"),
    ("cache.load", "repro.dmi.cache", "ArtifactCache.load_or_build"),
    ("cache.store", "repro.dmi.cache", "ArtifactCache.store"),
    ("store.get", "repro.bench.store", "FileSystemObjectStore.get"),
    ("store.put", "repro.bench.store", "FileSystemObjectStore.put_if_absent"),
    ("store.put", "repro.bench.store", "FileSystemObjectStore.put_if_match"),
    ("store.list", "repro.bench.store", "FileSystemObjectStore.list_prefix"),
    ("store.delete", "repro.bench.store", "FileSystemObjectStore.delete"),
    ("transport.submit", "repro.bench.transport", "ObjectStoreBroker.submit"),
    ("transport.lease", "repro.bench.transport", "ObjectStoreBroker.lease"),
    ("transport.renew", "repro.bench.transport", "ObjectStoreBroker.renew"),
    ("transport.post", "repro.bench.transport", "ObjectStoreBroker.post"),
    ("transport.collect", "repro.bench.transport", "ObjectStoreBroker.collect"),
    ("shard.execute", "repro.bench.shard", "ManifestExecutor.run"),
    ("shard.merge", "repro.bench.shard", "merge_shard_results"),
)


HERE = Path(__file__).resolve().parent


def _holds_targets(module) -> bool:
    """A ``repro`` module, or one of the benchmark's own."""
    if getattr(module, "__name__", "").startswith("repro"):
        return True
    path = getattr(module, "__file__", None)
    return path is not None and Path(path).resolve().parent == HERE


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Installs the wrappers on ``__enter__`` and restores them on ``__exit__``."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        #: Program counters read around calls (``cache.hit``/``cache.miss``).
        self.counts: Dict[str, int] = {"cache.hit": 0, "cache.miss": 0}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for prefix, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original,
                            self._wrap(prefix, original))
            else:
                original = getattr(module, attribute)
                wrapper = self._wrap(prefix, original)
                for holder in list(sys.modules.values()):
                    if not _holds_targets(holder):
                        continue
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, name, original, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back, then check that each one is in place."""
        patches, self._patches = self._patches, []
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
        for owner, name, original in patches:
            if vars(owner)[name] is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")

    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, prefix: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(prefix, SpanStats())
        local = self._local
        lock = self._lock
        counts = self.counts
        observe_cache = prefix == "cache.load"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            if observe_cache:
                cache = args[0]
                hits, misses = cache.hits, cache.misses
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with lock:
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.self_s += elapsed - frame[0]
                    if observe_cache:
                        counts["cache.hit"] += cache.hits - hits
                        counts["cache.miss"] += cache.misses - misses

        return wrapper

    # ------------------------------------------------------------------
    def span(self, prefix: str) -> SpanStats:
        return self.stats.get(prefix, SpanStats())

    def metrics(self) -> Dict[str, float]:
        """Every span as ``<prefix>.calls``, ``.ms`` and ``.self_ms``."""
        out: Dict[str, float] = {}
        for prefix, stats in self.stats.items():
            out[f"{prefix}.calls"] = stats.calls
            out[f"{prefix}.ms"] = stats.total_s * 1000.0
            out[f"{prefix}.self_ms"] = stats.self_s * 1000.0
        out.update(self.counts)
        return out
