"""Result codec: engine results <-> wire payloads, bit-exactly.

The acceptance bar for the front door is that a mining job submitted
over the wire returns *bit-identical* rules, lambdas and estimates to
the same job run in-process.  Numpy arrays therefore travel as their
raw bytes with an explicit-endian dtype and the shape — a ``bytes``
value, which the frame layer (:mod:`repro.net.protocol`) ships as a
raw segment, so no float formatting and no text encoding in the loop —
and scalar floats ride JSON's repr round-trip, which is exact for
Python doubles.

Three result shapes cross the wire:

- :class:`~repro.core.result.MiningResult` — rules with aggregates,
  multiplier/estimate arrays, the KL trace and the metrics snapshot;
- :class:`~repro.platforms.sql_sirum.SqlMiningResult` — the SQL-driven
  miner's variant (no multipliers; counts SQL statements instead);
- :class:`~repro.sql.result.ResultSet` — column names plus row tuples.

``sanitize()`` is the lenient cousin for *introspection* payloads
(``stats()`` dicts): it converts numpy scalars and tuples into plain
JSON types without promising reversibility.
"""

import numpy as np

from repro.common.errors import ProtocolError
from repro.core.config import SirumConfig
from repro.core.result import MinedRule, MiningResult, RuleSet
from repro.core.rule import Rule
from repro.platforms.sql_sirum import SqlMiningResult
from repro.sql.result import ResultSet


def encode_array(array):
    """One ndarray as a wire dict (dtype + shape + raw bytes)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,  # '<f8' etc: endianness is explicit
        "shape": list(array.shape),
        "data": array.tobytes(),
    }


def decode_array(payload):
    """Rebuild the exact ndarray ``encode_array`` serialized."""
    try:
        raw = payload["data"]
        if not isinstance(raw, bytes):
            raise TypeError("array data must be a byte segment")
        array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
        return array.reshape(payload["shape"]).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("malformed array payload: %s" % exc) from None


def sanitize(value):
    """Recursively coerce ``value`` into plain JSON-compatible types."""
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [sanitize(v) for v in value.tolist()]
    return value


_MINING_KIND = "mining_result"
_SQL_MINING_KIND = "sql_mining_result"
_SQL_KIND = "result_set"


def _encode_rules(rule_set):
    return [
        {
            "values": list(mined.rule.values),
            "avg_measure": float(mined.avg_measure),
            "count": int(mined.count),
            "gain": float(mined.gain),
            "iteration": int(mined.iteration),
        }
        for mined in rule_set
    ]


def _decode_rules(entries):
    return RuleSet([
        MinedRule(
            rule=Rule(entry["values"]),
            avg_measure=entry["avg_measure"],
            count=entry["count"],
            gain=entry["gain"],
            iteration=entry["iteration"],
        )
        for entry in entries
    ])


def result_to_wire(result):
    """Serialize a mining or SQL result into a wire payload."""
    if isinstance(result, MiningResult):
        return {
            "kind": _MINING_KIND,
            "rules": _encode_rules(result.rule_set),
            "lambdas": encode_array(result.lambdas),
            "estimates": encode_array(result.estimates),
            "kl_trace": [float(v) for v in result.kl_trace],
            "information_gain": float(result.information_gain),
            "metrics": sanitize(result.metrics),
            "wall_seconds": float(result.wall_seconds),
            "scaling_iterations": int(result.scaling_iterations),
            "ancestors_emitted": int(result.ancestors_emitted),
            "candidates_scored": int(result.candidates_scored),
            "config": sanitize(dict(result.config.__dict__)),
        }
    if isinstance(result, SqlMiningResult):
        return {
            "kind": _SQL_MINING_KIND,
            "rules": _encode_rules(result.rule_set),
            "estimates": encode_array(result.estimates),
            "kl_trace": [float(v) for v in result.kl_trace],
            "queries_issued": int(result.queries_issued),
            "metrics": sanitize(result.metrics),
        }
    if isinstance(result, ResultSet):
        return {
            "kind": _SQL_KIND,
            "columns": list(result.columns),
            "rows": sanitize(result.rows),
        }
    raise ProtocolError(
        "cannot serialize result of type %s" % type(result).__name__
    )


def result_from_wire(payload):
    """Rebuild the typed result a ``result_to_wire`` payload describes."""
    kind = payload.get("kind")
    if kind == _MINING_KIND:
        try:
            return MiningResult(
                rule_set=_decode_rules(payload["rules"]),
                lambdas=decode_array(payload["lambdas"]),
                estimates=decode_array(payload["estimates"]),
                kl_trace=payload["kl_trace"],
                information_gain=payload["information_gain"],
                metrics=payload["metrics"],
                wall_seconds=payload["wall_seconds"],
                scaling_iterations=payload["scaling_iterations"],
                ancestors_emitted=payload["ancestors_emitted"],
                candidates_scored=payload["candidates_scored"],
                config=SirumConfig(**payload["config"]),
            )
        except (KeyError, TypeError) as exc:
            raise ProtocolError(
                "malformed mining result payload: %s" % exc
            ) from None
    if kind == _SQL_MINING_KIND:
        try:
            return SqlMiningResult(
                rule_set=_decode_rules(payload["rules"]),
                kl_trace=payload["kl_trace"],
                estimates=decode_array(payload["estimates"]),
                queries_issued=payload["queries_issued"],
                metrics=payload["metrics"],
            )
        except (KeyError, TypeError) as exc:
            raise ProtocolError(
                "malformed sql mining result payload: %s" % exc
            ) from None
    if kind == _SQL_KIND:
        try:
            return ResultSet(payload["columns"], payload["rows"])
        except (KeyError, TypeError) as exc:
            raise ProtocolError(
                "malformed result set payload: %s" % exc
            ) from None
    raise ProtocolError("unknown result kind %r" % kind)
