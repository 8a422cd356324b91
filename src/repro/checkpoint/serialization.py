"""Exact encoding of live simulation state.

A checkpoint is only useful if resuming from it is *bit-identical* to never
having stopped, so every codec here is lossless by construction:

* numpy arrays stay arrays: :func:`encode_value` keeps a C-contiguous
  little-endian copy, which a snapshot file stores as a raw blob
  (:func:`split_blobs` / :func:`join_blobs`) — no text formatting of floats
  is involved;
* ``numpy.random.Generator`` streams travel as their bit-generator state
  dictionaries (arbitrary-precision integers, which JSON handles natively);
* scalars pass through unchanged (``json.dumps`` renders ``float`` with
  ``repr``, which round-trips every finite and non-finite double exactly);
* simulation objects (:class:`~repro.core.interface.Message`,
  :class:`~repro.simulation.events.Event`,
  :class:`~repro.core.interface.RoundContext`,
  :class:`~repro.compression.sizing.PayloadSize`) are encoded field by field
  under explicit type markers.

Mappings with non-string keys (e.g. ``neighbor_weights``) are encoded as an
ordered item list so integer keys and insertion order — which fixes floating
point accumulation order during aggregation — both survive the round trip.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.compression.sizing import PayloadSize
from repro.core.interface import Message, RoundContext
from repro.exceptions import CheckpointError
from repro.simulation.events import Event

__all__ = [
    "decode_rng_state",
    "decode_value",
    "encode_rng_state",
    "encode_value",
    "join_blobs",
    "new_rng_from_state",
    "split_blobs",
]

#: Type markers used by :func:`encode_value` and :func:`split_blobs`.  Plain
#: mappings containing one of these keys would be misread on decode, so
#: encoding them is refused.
_MARKERS = (
    "__blob__",
    "__rng__",
    "__items__",
    "__message__",
    "__event__",
    "__context__",
    "__payload_size__",
)


def _rebuild(value: Any, leaf: Callable[[Any], Any]) -> Any:
    """Copy an encoded tree, mapping keys in sorted order, every leaf through ``leaf``.

    A blob reference (a mapping holding ``__blob__``) is a leaf.  Sorted keys
    make the order arrays are met in a function of the content.
    """

    if isinstance(value, dict) and "__blob__" not in value:
        return {key: _rebuild(value[key], leaf) for key in sorted(value)}
    if isinstance(value, list):
        return [_rebuild(item, leaf) for item in value]
    return leaf(value)


def _dtype_and_shape(payload: Mapping[str, Any]) -> tuple[np.dtype, tuple[int, ...]]:
    try:
        return np.dtype(payload["dtype"]), tuple(int(n) for n in payload["shape"])
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"malformed blob reference: {error}") from error


def split_blobs(tree: Any) -> tuple[Any, list[np.ndarray]]:
    """Cut the arrays out of an encoded tree.

    Returns the tree with each array replaced by ``{"__blob__": i, "dtype",
    "shape"}`` (JSON-safe) and the arrays in index order.
    """

    blobs: list[np.ndarray] = []

    def leaf(value: Any) -> Any:
        if not isinstance(value, np.ndarray):
            return value
        blobs.append(value)
        return {"__blob__": len(blobs) - 1, "dtype": value.dtype.str, "shape": list(value.shape)}

    return _rebuild(tree, leaf), blobs


def join_blobs(tree: Any, blob: Callable[[np.dtype, tuple[int, ...]], np.ndarray]) -> Any:
    """Inverse of :func:`split_blobs`.

    ``blob(dtype, shape)`` returns the next array of the file, in index order.
    """

    count = 0

    def leaf(value: Any) -> Any:
        nonlocal count
        if not isinstance(value, dict):
            return value
        if value.get("__blob__") != count:
            raise CheckpointError(
                f"malformed snapshot header: expected blob {count}, found {value!r:.80}"
            )
        count += 1
        return blob(*_dtype_and_shape(value))

    return _rebuild(tree, leaf)


def encode_rng_state(generator: np.random.Generator) -> dict[str, Any]:
    """The bit-generator state of ``generator`` (JSON-safe, exact)."""

    return generator.bit_generator.state


def decode_rng_state(generator: np.random.Generator, state: Mapping[str, Any]) -> None:
    """Restore ``state`` (from :func:`encode_rng_state`) into ``generator``."""

    expected = generator.bit_generator.state.get("bit_generator")
    provided = dict(state).get("bit_generator")
    if provided != expected:
        raise CheckpointError(
            f"RNG state was captured from bit generator {provided!r}, "
            f"the target generator uses {expected!r}"
        )
    try:
        generator.bit_generator.state = dict(state)
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"malformed RNG state: {error}") from error


def new_rng_from_state(state: Mapping[str, Any]) -> np.random.Generator:
    """Build a fresh :func:`numpy.random.default_rng` stream holding ``state``."""

    generator = np.random.default_rng(0)
    decode_rng_state(generator, state)
    return generator


def _encode_mapping(value: Mapping[Any, Any]) -> Any:
    if all(isinstance(key, str) for key in value):
        for marker in _MARKERS:
            if marker in value:
                raise CheckpointError(
                    f"cannot encode a mapping containing the reserved key {marker!r}"
                )
        return {key: encode_value(item) for key, item in value.items()}
    # Non-string keys (e.g. node ids): an ordered item list preserves both the
    # key types and the insertion order.
    return {
        "__items__": [[encode_value(key), encode_value(item)] for key, item in value.items()]
    }


def encode_value(value: Any) -> Any:
    """Recursively encode ``value`` into JSON-safe data; see :func:`decode_value`."""

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        # A copy: the snapshot must not follow the live state it was taken from.
        return np.array(value, dtype=value.dtype.newbyteorder("<"), order="C")
    if isinstance(value, np.random.Generator):
        return {"__rng__": encode_rng_state(value)}
    if isinstance(value, PayloadSize):
        return {
            "__payload_size__": {
                "values_bytes": int(value.values_bytes),
                "metadata_bytes": int(value.metadata_bytes),
                "header_bytes": int(value.header_bytes),
            }
        }
    if isinstance(value, Message):
        return {
            "__message__": {
                "sender": int(value.sender),
                "kind": value.kind,
                "payload": _encode_mapping(value.payload),
                "size": encode_value(value.size),
                "shared_fraction": float(value.shared_fraction),
            }
        }
    if isinstance(value, Event):
        return {
            "__event__": {
                "time": float(value.time),
                "kind": value.kind,
                "node_id": int(value.node_id),
                "seq": int(value.seq),
                "data": None if value.data is None else _encode_mapping(value.data),
            }
        }
    if isinstance(value, RoundContext):
        return {
            "__context__": {
                "round_index": int(value.round_index),
                "params_start": encode_value(np.asarray(value.params_start)),
                "params_trained": encode_value(np.asarray(value.params_trained)),
                "self_weight": float(value.self_weight),
                "neighbor_weights": _encode_mapping(value.neighbor_weights),
                "rng": {"__rng__": encode_rng_state(value.rng)},
                "now": float(value.now),
                "node_id": int(value.node_id),
            }
        }
    if isinstance(value, Mapping):
        return _encode_mapping(value)
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    raise CheckpointError(
        f"cannot encode a value of type {type(value).__name__!r} into a snapshot"
    )


def decode_value(value: Any) -> Any:
    """Exact inverse of :func:`encode_value` (tuples come back as lists)."""

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        # A snapshot's arrays may be read-only file views, and are shared by
        # every restore of it: the consumer gets its own copy.
        return value.copy()
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, Mapping):
        if "__rng__" in value:
            return new_rng_from_state(value["__rng__"])
        if "__items__" in value:
            return {
                decode_value(key): decode_value(item) for key, item in value["__items__"]
            }
        if "__payload_size__" in value:
            fields = value["__payload_size__"]
            return PayloadSize(
                values_bytes=fields["values_bytes"],
                metadata_bytes=fields["metadata_bytes"],
                header_bytes=fields["header_bytes"],
            )
        if "__message__" in value:
            fields = value["__message__"]
            return Message(
                sender=fields["sender"],
                kind=fields["kind"],
                payload=decode_value(fields["payload"]),
                size=decode_value(fields["size"]),
                shared_fraction=fields["shared_fraction"],
            )
        if "__event__" in value:
            fields = value["__event__"]
            return Event(
                time=fields["time"],
                kind=fields["kind"],
                node_id=fields["node_id"],
                seq=fields["seq"],
                data=decode_value(fields["data"]),
            )
        if "__context__" in value:
            fields = value["__context__"]
            return RoundContext(
                round_index=fields["round_index"],
                params_start=decode_value(fields["params_start"]),
                params_trained=decode_value(fields["params_trained"]),
                self_weight=fields["self_weight"],
                neighbor_weights=decode_value(fields["neighbor_weights"]),
                rng=new_rng_from_state(fields["rng"]["__rng__"]),
                now=fields["now"],
                node_id=fields["node_id"],
            )
        return {key: decode_value(item) for key, item in value.items()}
    raise CheckpointError(
        f"cannot decode a value of type {type(value).__name__!r} from a snapshot"
    )
