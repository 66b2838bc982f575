"""Prometheus text exposition (format 0.0.4) for the observability stack.

One renderer over the server's existing snapshot shape, so a scraper can
consume the verification server without any new dependency:
:func:`render_server_snapshot` renders the deep ``stats`` payload (see
:meth:`repro.server.daemon.VerificationServer.snapshot`): nested dicts
flatten into underscore-joined metric names, a few known keys expand into
labelled samples (``solver_queries`` → ``kind=...``, ``per_op`` →
``op=...``), and embedded histogram snapshots become full
``_bucket``/``_sum``/``_count`` families.

The histogram buckets reuse :class:`repro.telemetry.metrics.Histogram`'s
power-of-two magnitude scheme: bucket ``k`` holds ``2**(k-1) < |v| <= 2**k``
(bucket 0 holds ``|v| <= 1``), so the exposed ``le`` bounds are ``1, 2, 4,
...`` — coarse, but honest and cheap, and cumulative as Prometheus requires.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "CONTENT_TYPE",
    "escape_help",
    "escape_label_value",
    "render_server_snapshot",
    "sanitize_metric_name",
]

#: The HTTP content type of exposition format 0.0.4 (informational here —
#: the server speaks JSON-RPC, not HTTP; scrape adapters should set this).
CONTENT_TYPE = "text/plain; version=0.0.4"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: Snapshot keys rendered as ``counter`` (monotonic); everything else
#: numeric is a ``gauge``.
_COUNTER_KEYS = frozenset(
    {
        "requests",
        "checks_executed",
        "dedup_hits",
        "cache_hits",
        "compile_hits",
        "compile_misses",
        "errors",
        "timeouts",
        "rejected",
        "resets",
        "hits",
        "misses",
        "evictions",
        "stores",
        "store_errors",
        "memory_hits",
        "disk_hits",
        "disk_misses",
        "disk_writes",
        "intern_hits",
        "intern_misses",
        "corrupt_entries",
        "events_written",
        "events_dropped",
        "captured",
        "fm_eliminations",
        "dark_shadow_splinters",
        "feasibility_checks",
    }
)

#: Dict-valued snapshot keys whose sub-keys become a label instead of a
#: metric-name component.
_LABELLED_KEYS = {"solver_queries": "kind", "per_op": "op", "by_status": "status"}


def sanitize_metric_name(name: str) -> str:
    """Coerce *name* into a legal Prometheus metric name."""
    cleaned = _NAME_BAD_CHARS.sub("_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: Any) -> str:
    """Escape a label value per the exposition format (backslash, quote, LF)."""
    return str(value).replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_labels(labels: Optional[Mapping[str, Any]]) -> str:
    if not labels:
        return ""
    parts = ",".join(
        f'{sanitize_metric_name(key)}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + parts + "}"


class _Exposition:
    """Accumulates samples and emits one ``# HELP``/``# TYPE`` per metric."""

    def __init__(self) -> None:
        self._families: "Dict[str, Tuple[str, str, List[str]]]" = {}
        self._order: List[str] = []

    def add(
        self,
        name: str,
        kind: str,
        value: Any,
        labels: Optional[Mapping[str, Any]] = None,
        help_text: Optional[str] = None,
        suffix: str = "",
    ) -> None:
        name = sanitize_metric_name(name)
        family = self._families.get(name)
        if family is None:
            family = (kind, help_text or f"{name} ({kind})", [])
            self._families[name] = family
            self._order.append(name)
        family[2].append(f"{name}{suffix}{_format_labels(labels)} {_format_value(value)}")

    def add_histogram(
        self,
        name: str,
        snapshot: Mapping[str, Any],
        labels: Optional[Mapping[str, Any]] = None,
        help_text: Optional[str] = None,
    ) -> None:
        """One full histogram family from a ``Histogram.snapshot()`` dict."""
        buckets = {int(k): int(v) for k, v in (snapshot.get("buckets") or {}).items()}
        count = int(snapshot.get("count") or 0)
        total = snapshot.get("sum") or 0.0
        cumulative = 0
        top = max(buckets) if buckets else 0
        for index in range(top + 1):
            cumulative += buckets.get(index, 0)
            upper = 2 ** index if index else 1
            self.add(
                name,
                "histogram",
                cumulative,
                labels={**(labels or {}), "le": upper},
                help_text=help_text,
                suffix="_bucket",
            )
        self.add(
            name,
            "histogram",
            count,
            labels={**(labels or {}), "le": "+Inf"},
            help_text=help_text,
            suffix="_bucket",
        )
        self.add(name, "histogram", float(total), labels=labels, help_text=help_text, suffix="_sum")
        self.add(name, "histogram", count, labels=labels, help_text=help_text, suffix="_count")

    def render(self) -> str:
        lines: List[str] = []
        for name in self._order:
            kind, help_text, samples = self._families[name]
            lines.append(f"# HELP {name} {escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n" if lines else ""


def _kind_for(key: str) -> str:
    return "counter" if key in _COUNTER_KEYS else "gauge"


def _walk(out: _Exposition, path: Tuple[str, ...], value: Any, namespace: str) -> None:
    name = namespace + "_" + "_".join(path) if path else namespace
    key = path[-1] if path else ""
    if isinstance(value, bool) or isinstance(value, (int, float)):
        out.add(name, _kind_for(key), value)
    elif isinstance(value, Mapping):
        if value.get("type") == "histogram":
            out.add_histogram(name, value)
            return
        label = _LABELLED_KEYS.get(key)
        if label is not None:
            for sub_key in sorted(value, key=str):
                sub = value[sub_key]
                if isinstance(sub, (bool, int, float)):
                    out.add(name, _kind_for(key), sub, labels={label: sub_key})
                elif isinstance(sub, Mapping):
                    for leaf_key in sorted(sub, key=str):
                        leaf = sub[leaf_key]
                        if isinstance(leaf, (bool, int, float)):
                            out.add(
                                f"{name}_{leaf_key}",
                                _kind_for(leaf_key),
                                leaf,
                                labels={label: sub_key},
                            )
            return
        for sub_key in sorted(value, key=str):
            _walk(out, path + (str(sub_key),), value[sub_key], namespace)
    # Strings, None and lists carry no sample; they stay JSON-only fields.


def render_server_snapshot(snapshot: Mapping[str, Any], namespace: str = "repro_server") -> str:
    """Render the server's deep ``stats`` snapshot to exposition text."""
    out = _Exposition()
    for key in snapshot:
        _walk(out, (str(key),), snapshot[key], namespace)
    return out.render()
