"""Tracing wrappers around the library's public functions, installed from outside.

Every public function and public method of each layer module is replaced by
a wrapper wherever it can be looked up: in the defining module, in every
``blockwitness`` module that bound it by ``from .x import f``, in the package
namespace, and on the class for methods.  Each call becomes a span (name,
start, end, parent span, item id) kept in flat arrays and written once at the
end.  Self time per module is the span's duration minus the time of its child
spans; the wrapper's own bookkeeping falls to the caller's self time.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("partitions", "degrees", "factored", "blocks", "parameters", "witness", "oracle", "tables")

# (name, unit): every metric a traced run reports.
PER_LAYER = (
    ("partitions.enumerated", "count"),
    ("partitions.enumerate_s", "s"),
    ("partitions.p_core_calls", "count"),
    ("partitions.p_core_s", "s"),
    ("partitions.hook_lengths_calls", "count"),
    ("partitions.hook_lengths_s", "s"),
    ("partitions.self_conjugate_calls", "count"),
    ("degrees.degree_calls", "count"),
    ("degrees.degree_s", "s"),
    ("degrees.valuation_calls", "count"),
    ("degrees.valuation_s", "s"),
    ("factored.factor_calls", "count"),
    ("factored.factor_hit_ratio", "ratio"),
    ("factored.product_calls", "count"),
    ("factored.product_s", "s"),
    ("factored.div_s", "s"),
    ("factored.to_int_s", "s"),
    ("factored.is_prime_calls", "count"),
    ("factored.is_prime_s", "s"),
    ("blocks.contains_calls", "count"),
    ("blocks.contains_s", "s"),
    ("blocks.contains_true_ratio", "ratio"),
    ("parameters.derive_calls", "count"),
    ("parameters.derive_s", "s"),
    ("witness.construct_s", "s"),
    ("witness.verify_calls", "count"),
    ("witness.verify_s", "s"),
    ("witness.candidates_per_witness", "ratio"),
    ("witness.fail_block", "count"),
    ("witness.fail_host", "count"),
    ("witness.fail_divisor", "count"),
    ("witness.fail_self_conjugate", "count"),
    ("oracle.witness_sets_calls", "count"),
    ("oracle.witness_sets_s", "s"),
    ("oracle.scan_hit_ratio", "ratio"),
    ("oracle.prime_view_hit_ratio", "ratio"),
    ("oracle.cache_entries", "count"),
    ("tables.build_s", "s"),
    ("tables.serialize_s", "s"),
    ("tables.bytes_out", "B"),
    ("tables.parse_s", "s"),
    ("tables.bytes_in", "B"),
    ("tables.rows_parsed", "count"),
    ("tables.audit_s", "s"),
    ("tables.findings_violation", "count"),
    ("tables.findings_indeterminate", "count"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "x"),
)

# Span name -> metric prefix for call counts and inclusive seconds.
CALLS = {
    "partitions.Partition.p_core": "partitions.p_core",
    "partitions.Partition.hook_lengths": "partitions.hook_lengths",
    "degrees.degree": "degrees.degree",
    "degrees.degree_valuation": "degrees.valuation",
    "factored.factor": "factored.factor",
    "factored.product": "factored.product",
    "factored.is_prime": "factored.is_prime",
    "blocks.principal_block_contains": "blocks.contains",
    "parameters.derive_case_parameters": "parameters.derive",
    "witness.verify_candidate": "witness.verify",
    "oracle.witness_sets": "oracle.witness_sets",
}
SECONDS = {
    "partitions.partitions_of": "partitions.enumerate_s",
    "factored.FactoredNatural.div": "factored.div_s",
    "factored.FactoredNatural.to_int": "factored.to_int_s",
    "witness.construct_witness": "witness.construct_s",
    "tables.build_sn_summary": "tables.build_s",
    "tables.serialize_table": "tables.serialize_s",
    "tables.parse_table": "tables.parse_s",
    "tables.audit": "tables.audit_s",
}

_FAIL_REASONS = (
    ("outside the principal", "witness.fail_block"),
    ("degree divisible by host prime", "witness.fail_host"),
    ("degree not divisible by", "witness.fail_divisor"),
    ("self-conjugate", "witness.fail_self_conjugate"),
)


def _observe_contains(counts, args, result):
    counts["blocks.contains_true"] += bool(result)


def _observe_verify(counts, args, result):
    reason = getattr(result, "reason", None)
    if reason is None:
        return
    for prefix, metric in _FAIL_REASONS:
        if reason.startswith(prefix):
            counts[metric] += 1
            return


def _observe_construct(counts, args, result):
    counts["witness.constructed"] += 1


def _observe_serialize(counts, args, result):
    counts["tables.bytes_out"] += len(result)


def _observe_parse(counts, args, result):
    counts["tables.bytes_in"] += len(args[0])
    counts["tables.rows_parsed"] += len(result.rows)


def _observe_audit(counts, args, result):
    for finding in result:
        if finding.verdict in ("violation", "indeterminate"):
            counts[f"tables.findings_{finding.verdict}"] += 1


OBSERVERS = {
    "blocks.principal_block_contains": _observe_contains,
    "witness.verify_candidate": _observe_verify,
    "witness.construct_witness": _observe_construct,
    "tables.serialize_table": _observe_serialize,
    "tables.parse_table": _observe_parse,
    "tables.audit": _observe_audit,
}


class Tracer:
    """Spans and counters for one pass; active only inside timed items."""

    def __init__(self) -> None:
        self.active = False
        self.item = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.stack: list[list[int]] = []  # [span index, child time ns]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.caches: dict[str, object] = {}
        self.cache_stats: dict[str, list[int]] = {}
        self._snapshot: dict[str, tuple[int, int]] = {}

    # -- spans ------------------------------------------------------------

    def _open(self, name_id: int) -> list[int]:
        frame = [len(self.span_start), 0]
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0)
        self.stack.append(frame)
        self.span_start.append(perf_counter_ns())
        return frame

    def _close(self, frame: list[int], name: str, layer: str) -> None:
        end = perf_counter_ns()
        index, child_ns = frame
        self.stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.self_ns[layer] += duration - child_ns
        if self.stack:
            self.stack[-1][1] += duration
        self.calls[name] += 1
        self.total_ns[name] += duration

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        name_id = self._name_id(name)
        observe = OBSERVERS.get(name)

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                generator = fn(*args, **kwargs)
                return tracer._iterate(generator, name_id, name, layer) if tracer.active else generator

            return traced_generator

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name, layer)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def _iterate(self, generator, name_id: int, name: str, layer: str):
        # One span per step, so enumeration time lands in its own layer.
        while True:
            frame = self._open(name_id)
            try:
                value = next(generator)
            except StopIteration:
                return
            finally:
                self._close(frame, name, layer)
            self.counts[name + ".yielded"] += 1
            yield value

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        import blockwitness.cli  # noqa: F401  (binds names too)

        loaded = [
            module
            for key, module in list(sys.modules.items())
            if key == "blockwitness" or key.startswith("blockwitness.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"blockwitness.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_methods(layer, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    if hasattr(obj, "cache_info"):
                        self.caches[f"{layer}.{attr}"] = obj
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    for other in loaded:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, key, wrapped)
        oracle = sys.modules["blockwitness.oracle"]
        self.caches["oracle._scan"] = oracle._scan
        self.caches["oracle._prime_view"] = oracle._prime_view
        self.cache_stats = {name: [0, 0] for name in self.caches}

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__mul__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, layer, member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, layer, member.__func__)))

    # -- items ------------------------------------------------------------

    def begin_item(self, index: int) -> None:
        self.item = index
        self._snapshot = {name: self._hits_misses(name) for name in self.caches}
        self.active = True

    def end_item(self) -> None:
        self.active = False
        for name, (hits, misses) in self._snapshot.items():
            now_hits, now_misses = self._hits_misses(name)
            self.cache_stats[name][0] += now_hits - hits
            self.cache_stats[name][1] += now_misses - misses

    def _hits_misses(self, name: str) -> tuple[int, int]:
        info = self.caches[name].cache_info()
        return info.hits, info.misses

    # -- results ----------------------------------------------------------

    def _hit_ratio(self, name: str) -> float:
        hits, misses = self.cache_stats[name]
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs two passes."""
        out: dict[str, float] = {}
        for span, prefix in CALLS.items():
            out[f"{prefix}_calls"] = self.calls.get(span, 0)
            out[f"{prefix}_s"] = self.total_ns.get(span, 0) / 1e9
        for span, metric in SECONDS.items():
            out[metric] = self.total_ns.get(span, 0) / 1e9
        out["partitions.enumerated"] = self.counts["partitions.partitions_of.yielded"]
        out["partitions.self_conjugate_calls"] = self.calls.get(
            "partitions.Partition.is_self_conjugate", 0
        )
        out["factored.factor_hit_ratio"] = self._hit_ratio("factored.factor")
        contains = out["blocks.contains_calls"]
        out["blocks.contains_true_ratio"] = (
            self.counts["blocks.contains_true"] / contains if contains else 0.0
        )
        constructed = self.counts["witness.constructed"]
        out["witness.candidates_per_witness"] = (
            out["witness.verify_calls"] / constructed if constructed else 0.0
        )
        for _, metric in _FAIL_REASONS:
            out[metric] = self.counts[metric]
        out["oracle.scan_hit_ratio"] = self._hit_ratio("oracle._scan")
        out["oracle.prime_view_hit_ratio"] = self._hit_ratio("oracle._prime_view")
        out["oracle.cache_entries"] = sum(
            self.caches[name].cache_info().currsize for name in ("oracle._scan", "oracle._prime_view")
        )
        for metric in ("bytes_out", "bytes_in", "rows_parsed", "findings_violation", "findings_indeterminate"):
            out[f"tables.{metric}"] = self.counts[f"tables.{metric}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns.get(layer, 0) / 1e9
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped TSV: id, name, start_ns, end_ns, parent, item."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tparent\titem\n")
            names = self.names
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_item[i]}\n"
                )


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
