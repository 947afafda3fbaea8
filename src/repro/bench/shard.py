"""Sharded manifest execution: plan / run / merge across machines.

The evaluation grid is embarrassingly parallel (8 settings × 27 tasks × 3
trials for Table 3), and every cell is a self-contained, deterministically
seeded :class:`~repro.bench.engine.TrialSpec`.  This module distributes the
grid over independent machines with three file-based steps:

``plan``
    :func:`plan_shards` expands the grid once, partitions it round-robin
    into N :class:`ShardManifest`\\ s and writes one JSON manifest per shard.
    A manifest embeds everything a remote executor needs *and* everything
    the merge step needs to prove the shards belong together: the benchmark
    seed, trial count, setting keys, task ids, the DMI configuration
    fingerprint (:func:`repro.dmi.cache.config_fingerprint`) and a manifest
    format version.
``run``
    :class:`ManifestExecutor` executes one manifest on any machine.  It
    refuses manifests written for a different format version or DMI
    configuration, then reuses the ordinary engine stack — a
    :class:`~repro.bench.engine.SerialExecutor` or process-pool
    :class:`~repro.bench.engine.ParallelExecutor` over the on-disk
    :class:`~repro.dmi.cache.ArtifactCache` (a warm cache skips GUI ripping
    entirely) — and writes a results JSON of
    :meth:`~repro.agent.session.SessionResult.as_dict` payloads.
``merge``
    :func:`merge_shard_results` validates that every results file came from
    the *same* plan (seed / trials / fingerprint / grid / shard count
    mismatches and missing or duplicate shards are clean
    :class:`ShardError`\\ s), reassembles the results **in canonical spec
    order** and feeds the existing :class:`~repro.bench.runner.RunOutcome`
    pipeline, so a merged sharded run is bit-identical to a serial run for
    the same seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.agent.session import SessionResult
from repro.bench.engine import ProgressCallback, TrialSpec, expand_trial_specs
from repro.bench.fields import FieldReader
from repro.dmi.cache import ArtifactCache, config_fingerprint
from repro.dmi.interface import DMIConfig

#: Version of the manifest / results JSON layout.  Bumped on any change to
#: the schema; mismatching files are rejected instead of misread.
MANIFEST_FORMAT_VERSION = 1

_MANIFEST_KIND = "repro-shard-manifest"
_RESULTS_KIND = "repro-shard-results"


class ShardError(ValueError):
    """A manifest or results file is invalid or inconsistent with its peers."""


_fields = FieldReader(ShardError)


def _check_header(payload: Dict[str, object], kind: str, source: str) -> None:
    found_kind = payload.get("kind")
    if found_kind != kind:
        raise ShardError(f"{source}: field 'kind' is {found_kind!r}; "
                         f"expected a {kind!r} file")
    version = payload.get("format_version")
    if version != MANIFEST_FORMAT_VERSION:
        raise ShardError(
            f"{source}: field 'format_version' is {version!r}; this build "
            f"reads format version {MANIFEST_FORMAT_VERSION}")


def _load_json(path: Union[str, Path], source: str) -> Dict[str, object]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ShardError(f"{source}: cannot read {path!s}: {error}") from error
    except json.JSONDecodeError as error:
        raise ShardError(f"{source}: {path!s} is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ShardError(f"{source}: {path!s} does not contain a JSON object")
    return payload


def _parse_json_bytes(data: bytes, source: str) -> Dict[str, object]:
    """Like :func:`_load_json` for payloads that never touched a file
    (object-store values); ``source`` should name the store and key."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ShardError(f"{source}: is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ShardError(f"{source}: does not contain a JSON object")
    return payload


@dataclass(frozen=True)
class ShardManifest:
    """One shard's work order: a spec batch plus the plan's identity.

    The identity fields (``seed``, ``trials``, ``fingerprint``,
    ``setting_keys``, ``task_ids``, ``shard_count``) are replicated into
    every manifest so any executor can verify compatibility and the merge
    step can prove all shards came from one plan without a side channel.
    """

    shard_index: int
    shard_count: int
    seed: int
    trials: int
    fingerprint: str
    setting_keys: Tuple[str, ...]
    task_ids: Tuple[str, ...]
    specs: Tuple[TrialSpec, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": _MANIFEST_KIND,
            "format_version": MANIFEST_FORMAT_VERSION,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "seed": self.seed,
            "trials": self.trials,
            "fingerprint": self.fingerprint,
            "setting_keys": list(self.setting_keys),
            "task_ids": list(self.task_ids),
            "specs": [spec.as_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object],
                  source: str = "manifest") -> "ShardManifest":
        _check_header(payload, _MANIFEST_KIND, source)
        specs = []
        for position, spec in enumerate(
                _fields.require_list(payload, "specs", source)):
            try:
                specs.append(TrialSpec.from_dict(spec))
            except (KeyError, TypeError, ValueError, AttributeError) as error:
                raise ShardError(
                    f"{source}: field 'specs[{position}]' is not a valid "
                    f"trial spec: {error!r}") from error
        return cls(
            shard_index=_fields.require_int(payload, "shard_index", source),
            shard_count=_fields.require_int(payload, "shard_count", source),
            seed=_fields.require_int(payload, "seed", source),
            trials=_fields.require_int(payload, "trials", source),
            fingerprint=_fields.require_str(payload, "fingerprint", source),
            setting_keys=_fields.require_str_tuple(payload, "setting_keys",
                                                   source),
            task_ids=_fields.require_str_tuple(payload, "task_ids", source),
            specs=tuple(specs),
        )

    def save(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.as_dict(), indent=1), encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardManifest":
        return cls.from_dict(_load_json(path, "manifest"), source=str(path))

    def plan_identity(self) -> Tuple[object, ...]:
        """Everything that must agree across shards of one plan."""
        return (self.shard_count, self.seed, self.trials, self.fingerprint,
                self.setting_keys, self.task_ids)

    @property
    def trace_id(self) -> str:
        """Deterministic trace id for this shard's telemetry.

        Derived from the plan-identity fields plus ``shard_index`` (never
        stored — the manifest wire format is unchanged), so the
        submitter, any worker holding the lease, and the collector all
        compute the same id independently.
        """
        from repro.bench.observe.trace import manifest_trace_id
        return manifest_trace_id(self)


#: Labels for :meth:`ShardManifest.plan_identity`, in tuple order.
PLAN_IDENTITY_LABELS = ("shard_count", "seed", "trials", "fingerprint",
                        "setting_keys", "task_ids")


def check_plan_identity(reference: Tuple[object, ...],
                        manifest: "ShardManifest", source: str) -> None:
    """Raise a :class:`ShardError` naming the first identity field on which
    ``manifest`` disagrees with ``reference`` (a ``plan_identity()`` tuple)."""
    theirs = manifest.plan_identity()
    if theirs == reference:
        return
    for label, ours_value, theirs_value in zip(PLAN_IDENTITY_LABELS,
                                               reference, theirs):
        if ours_value != theirs_value:
            raise ShardError(
                f"{source}: does not belong to this plan: field {label!r} "
                f"is {theirs_value!r}, expected {ours_value!r}")
    # Unequal tuples with no differing zipped field means the shapes differ
    # (e.g. an identity built by an older build) — never accept silently.
    raise ShardError(
        f"{source}: does not belong to this plan: identity has "
        f"{len(theirs)} field(s), expected {len(reference)}")


def shard_file_name(shard_index: int, shard_count: int) -> str:
    """Canonical file name for one shard's manifest (and its results)."""
    return f"shard-{shard_index:03d}-of-{shard_count:03d}.json"


@dataclass(frozen=True)
class ShardPlan:
    """A full grid partitioned into N self-contained manifests."""

    manifests: Tuple[ShardManifest, ...]

    @property
    def shard_count(self) -> int:
        return len(self.manifests)

    def specs(self) -> List[TrialSpec]:
        """All specs across shards (shard-local order, not canonical)."""
        return [spec for manifest in self.manifests for spec in manifest.specs]

    def manifest_name(self, index: int) -> str:
        return shard_file_name(index, self.shard_count)

    def write(self, out_dir: Union[str, Path]) -> List[Path]:
        """Write one manifest file per shard; returns the paths in order."""
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        return [manifest.save(directory / self.manifest_name(manifest.shard_index))
                for manifest in self.manifests]


def plan_shards(shards: int, *, seed: int, trials: int,
                setting_keys: Sequence[str], task_ids: Sequence[str],
                dmi_config: Optional[DMIConfig] = None) -> ShardPlan:
    """Expand the grid and partition it into ``shards`` manifests.

    Specs are dealt round-robin (shard *i* takes canonical specs
    ``i, i+N, i+2N, …``) so every shard carries a balanced mix of settings
    and applications; the merge step reassembles canonical order, so the
    partition layout never affects the merged output.
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    if trials < 1:
        raise ShardError(f"trials must be >= 1, got {trials}")
    setting_keys = tuple(setting_keys)
    task_ids = tuple(task_ids)
    # Duplicates would expand into identical TrialSpecs spread across
    # shards, which execute fine but can never merge ("spec claimed by more
    # than one shard") — reject the plan up front instead of after the
    # compute is spent.
    for label, values in (("setting key", setting_keys), ("task id", task_ids)):
        duplicates = sorted({v for v in values if values.count(v) > 1})
        if duplicates:
            raise ShardError(f"duplicate {label}(s) in the plan grid: "
                             f"{', '.join(map(repr, duplicates))}")
    specs = expand_trial_specs(seed, trials, setting_keys, task_ids)
    if shards > len(specs):
        raise ShardError(
            f"cannot split {len(specs)} trial specs into {shards} shards; "
            "use fewer shards (every shard must carry at least one spec)")
    fingerprint = config_fingerprint(dmi_config or DMIConfig())
    manifests = tuple(
        ShardManifest(shard_index=index, shard_count=shards, seed=seed,
                      trials=trials, fingerprint=fingerprint,
                      setting_keys=setting_keys, task_ids=task_ids,
                      specs=tuple(specs[index::shards]))
        for index in range(shards))
    return ShardPlan(manifests=manifests)


# ----------------------------------------------------------------------
# running one manifest
# ----------------------------------------------------------------------
@dataclass
class ShardResults:
    """One executed shard: the manifest echo plus its session results.

    ``results[i]`` is the outcome of ``manifest.specs[i]``; the manifest is
    embedded verbatim so the merge step can validate provenance from the
    results file alone.  ``source`` remembers where the results were loaded
    from (a file path, or an object-store key) purely for error messages —
    it is not serialized and never participates in equality.
    """

    manifest: ShardManifest
    results: List[SessionResult] = field(default_factory=list)
    source: Optional[str] = field(default=None, compare=False, repr=False)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": _RESULTS_KIND,
            "format_version": MANIFEST_FORMAT_VERSION,
            "manifest": self.manifest.as_dict(),
            "results": [result.as_dict() for result in self.results],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object],
                  source: str = "results") -> "ShardResults":
        _check_header(payload, _RESULTS_KIND, source)
        manifest_payload = _fields.require(payload, "manifest", source)
        if not isinstance(manifest_payload, dict):
            raise ShardError(f"{source}: field 'manifest' must be a JSON "
                             f"object, got {type(manifest_payload).__name__}")
        manifest = ShardManifest.from_dict(
            manifest_payload, source=f"{source} (manifest)")
        results = []
        for position, result in enumerate(
                _fields.require_list(payload, "results", source)):
            try:
                results.append(SessionResult.from_dict(result))
            except (KeyError, TypeError, ValueError, AttributeError) as error:
                raise ShardError(
                    f"{source}: field 'results[{position}]' is not a valid "
                    f"session result: {error!r}") from error
        if len(results) != len(manifest.specs):
            raise ShardError(
                f"{source}: shard {manifest.shard_index} carries "
                f"{len(manifest.specs)} specs but {len(results)} results")
        # results[i] must be the outcome of specs[i]; a reordered or
        # hand-merged results array would otherwise silently attribute
        # trials to the wrong grid cells.
        from repro.bench.runner import setting_by_key

        for position, (spec, result) in enumerate(zip(manifest.specs, results)):
            if result.task_id != spec.task_id:
                raise ShardError(
                    f"{source}: result {position} is for task "
                    f"{result.task_id!r} but spec {position} expects "
                    f"{spec.task_id!r}; the results array is misaligned "
                    "with the manifest's specs")
            try:
                setting = setting_by_key(spec.setting_key)
            except KeyError:
                # Unknown setting keys get a clean registry error at merge
                # time; they cannot be cross-checked here.
                continue
            observed = (result.interface.value, result.model, result.reasoning)
            expected = (setting.interface.value, setting.profile.name,
                        setting.profile.reasoning)
            if observed != expected:
                raise ShardError(
                    f"{source}: result {position} ran under "
                    f"interface/model/reasoning {observed!r} but spec "
                    f"{position} is for setting {spec.setting_key!r} "
                    f"{expected!r}; the results array is misaligned with "
                    "the manifest's specs")
        return cls(manifest=manifest, results=results, source=source)

    def save(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.as_dict(), indent=1), encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ShardResults":
        return cls.from_dict(_load_json(path, "results"), source=str(path))


class ManifestExecutor:
    """Runs one :class:`ShardManifest` on this machine.

    A thin adapter over the ordinary engine stack: it rebuilds a
    :class:`~repro.bench.runner.BenchmarkRunner` from the manifest's seed
    and trial count, selects the serial or process-pool executor via
    ``jobs`` and reuses the on-disk :class:`~repro.dmi.cache.ArtifactCache`
    when ``cache_dir`` is given, so a warm cache skips GUI ripping exactly
    as a local run would.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None,
                 dmi_config: Optional[DMIConfig] = None,
                 cache_max_entries: Optional[int] = None,
                 sink=None) -> None:
        if jobs < 1:
            raise ShardError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.dmi_config = dmi_config or DMIConfig()
        self.cache_max_entries = cache_max_entries
        #: Telemetry sink handed to the runner and cache of every manifest
        #: this executor runs (None = the process default at emit time).
        self.sink = sink
        #: One cache shared across every manifest this executor runs, so
        #: hit/miss counters aggregate over a whole worker session.
        self.cache: Optional[ArtifactCache] = (
            ArtifactCache(cache_dir, self.dmi_config,
                          max_entries=cache_max_entries, sink=sink)
            if cache_dir is not None else None)

    def cache_stats(self) -> Optional[Dict[str, object]]:
        """Cumulative cache hit/miss stats, or None without a cache_dir."""
        return self.cache.stats() if self.cache is not None else None

    def run(self, manifest: ShardManifest,
            progress: Optional[ProgressCallback] = None) -> ShardResults:
        from repro.bench.runner import BenchmarkConfig, BenchmarkRunner

        local = config_fingerprint(self.dmi_config)
        if manifest.fingerprint != local:
            raise ShardError(
                f"manifest was planned for DMI configuration "
                f"{manifest.fingerprint} but this executor runs {local}; "
                "results would not merge with the plan's other shards")
        runner = BenchmarkRunner(BenchmarkConfig(
            trials=manifest.trials, seed=manifest.seed, dmi=self.dmi_config,
            jobs=self.jobs, cache_dir=self.cache_dir,
            cache_max_entries=self.cache_max_entries))
        runner.sink = self.sink
        if self.cache is not None:
            # Share the executor-lifetime cache (and its counters) instead
            # of the runner's per-run instance.
            runner.cache = self.cache
        # Register the grid's settings/tasks so spec resolution matches a
        # local run (registry lookup; ad-hoc objects never cross machines).
        try:
            runner.trial_specs([runner._resolve_setting(key)
                                for key in manifest.setting_keys],
                               [runner._resolve_task(task_id)
                                for task_id in manifest.task_ids])
        except KeyError as error:
            raise ShardError(
                f"manifest references {error} which is not in this build's "
                "registry; the plan and executor must run the same version"
            ) from error
        results = runner.executor().run(runner, manifest.specs,
                                        progress=progress)
        return ShardResults(manifest=manifest, results=list(results))


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def _describe_results(shard: ShardResults) -> str:
    """Where one ShardResults came from, for merge error messages."""
    return shard.source if shard.source else "<in-memory ShardResults>"


def merge_shard_results(shards: Sequence[ShardResults]) -> Dict[str, "RunOutcome"]:
    """Validate ``shards`` and reassemble them into per-setting outcomes.

    The merged mapping is byte-identical to what
    :meth:`~repro.bench.runner.BenchmarkRunner.run_settings` produces for
    the same grid and seed: results are re-ordered into canonical spec
    order (settings × tasks × trials) before aggregation, so shard layout
    and completion order never leak into the output.
    """
    from repro.bench.runner import RunOutcome, setting_by_key

    shards = list(shards)
    if not shards:
        raise ShardError("no shard results to merge")
    reference = shards[0].manifest
    for shard in shards[1:]:
        manifest = shard.manifest
        check_plan_identity(reference.plan_identity(), manifest,
                            source=f"shard {manifest.shard_index}")
    seen: Dict[int, ShardResults] = {}
    for shard in shards:
        index = shard.manifest.shard_index
        if index in seen:
            # Name both offending results files: "shard 3 twice" is not
            # actionable when ten result paths were globbed onto the
            # command line.
            raise ShardError(
                f"shard {index} appears more than once "
                f"(first: {_describe_results(seen[index])}, "
                f"duplicate: {_describe_results(shard)})")
        if not 0 <= index < reference.shard_count:
            raise ShardError(f"shard index {index} out of range for a "
                             f"{reference.shard_count}-shard plan")
        seen[index] = shard
    missing = sorted(set(range(reference.shard_count)) - set(seen))
    if missing:
        raise ShardError(
            f"incomplete plan: missing results for shard(s) "
            f"{', '.join(map(str, missing))} of {reference.shard_count}")

    by_spec: Dict[TrialSpec, SessionResult] = {}
    for shard in shards:
        for spec, result in zip(shard.manifest.specs, shard.results):
            if spec in by_spec:
                raise ShardError(f"trial spec {spec.as_dict()!r} is claimed "
                                 "by more than one shard")
            by_spec[spec] = result
    canonical = expand_trial_specs(reference.seed, reference.trials,
                                   reference.setting_keys, reference.task_ids)
    stray = set(by_spec) - set(canonical)
    if stray:
        example = sorted(stray, key=lambda s: (s.setting_key, s.task_id, s.trial))[0]
        raise ShardError(f"shard results contain a spec outside the plan's "
                         f"grid: {example.as_dict()!r}")
    absent = [spec for spec in canonical if spec not in by_spec]
    if absent:
        raise ShardError(f"plan grid has {len(absent)} trial spec(s) with no "
                         f"result, first: {absent[0].as_dict()!r}")

    try:
        outcomes = {key: RunOutcome(setting=setting_by_key(key))
                    for key in reference.setting_keys}
    except KeyError as error:
        raise ShardError(
            f"shard results reference evaluation setting {error} which is "
            "not in this build's registry; merge with the same version that "
            "planned the shards") from error
    for spec in canonical:
        outcomes[spec.setting_key].results.append(by_spec[spec])
    return outcomes
