"""One generic dataclass <-> JSON codec for all persisted state.

Every checkpointed experiment unit persists ``encode(result)`` and every
report is rendered from ``decode(cls, payload)``; every gateway session
snapshot persists ``encode(state)`` of the typed state dataclasses the
components export; the orchestrator's config hash is a hash of
``encode(params)``.  Nothing needs a hand-written serializer: the
dataclass's own fields and type hints are the schema.  The mapping is
exact for everything that state holds:

* dataclasses become objects of their fields; fields declared
  ``compare=False`` (live handles such as ``SubjectRunResult.runner``)
  are dropped and come back as their defaults;
* enums become their values;
* tuples and lists become arrays (``tuple[...]`` hints restore tuples);
* ``str``-keyed dicts become objects, any other dict a list of
  ``[key, value]`` pairs, so enum and float keys keep their type and
  insertion order;
* ``np.ndarray`` values become ``{"dtype", "shape", "values"}``; the
  values widen to Python scalars and narrow back to the recorded dtype,
  which is lossless for every bool/int/uint/float dtype, -0.0 and the
  infinities included, so ``tobytes()`` survives the round trip (a NaN
  comes back as the default quiet NaN: JSON, like the scalar path,
  keeps no NaN sign or payload);
* floats go through ``json``'s shortest round-trip repr (NaN and the
  infinities included), so ``decode(cls, json.loads(json.dumps(
  encode(x)))) == x`` bit for bit.  ``json`` parses every ``NaN`` to
  one shared float object, so each decoded NaN is made a fresh one:
  two NaN keys of one dict are distinct keys and must stay two.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import types
import typing
from typing import Any, TypeVar

import numpy as np

__all__ = ["decode", "encode"]

T = TypeVar("T")


def encode(obj: Any) -> Any:
    """``obj`` as JSON-ready primitives (see the module docstring)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: encode(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.compare
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        if all(isinstance(key, str) for key in obj):
            return {key: encode(value) for key, value in obj.items()}
        return [[encode(key), encode(value)] for key, value in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [encode(value) for value in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "biuf":
            raise TypeError(f"cannot encode {obj.dtype} array")
        return {
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
            "values": obj.ravel().tolist(),
        }
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__}: {obj!r}")


@functools.cache
def _hints(cls: type) -> dict[str, Any]:
    return typing.get_type_hints(cls)


def decode(cls: type[T] | Any, data: Any) -> T:
    """Rebuild a ``cls`` value from :func:`encode`'s output."""
    if dataclasses.is_dataclass(cls):
        hints = _hints(cls)
        return cls(  # type: ignore[return-value]
            **{
                f.name: decode(hints[f.name], data[f.name])
                for f in dataclasses.fields(cls)
                if f.compare and f.init
            }
        )
    if isinstance(cls, type) and issubclass(cls, enum.Enum):
        return cls(data)  # type: ignore[return-value]
    if cls is np.ndarray:
        array = np.asarray(data["values"], dtype=data["dtype"])
        return array.reshape(data["shape"])  # type: ignore[return-value]
    origin = typing.get_origin(cls)
    args = typing.get_args(cls)
    if origin in (typing.Union, types.UnionType):
        if data is None:
            return None  # type: ignore[return-value]
        (inner,) = [arg for arg in args if arg is not type(None)]
        return decode(inner, data)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode(args[0], v) for v in data)  # type: ignore[return-value]
        return tuple(decode(a, v) for a, v in zip(args, data))  # type: ignore[return-value]
    if origin is list:
        return [decode(args[0], v) for v in data]  # type: ignore[return-value]
    if origin is dict:
        pairs = data.items() if isinstance(data, dict) else data
        return {  # type: ignore[return-value]
            decode(args[0], key): decode(args[1], value) for key, value in pairs
        }
    if isinstance(data, float) and math.isnan(data):
        return float("nan")  # type: ignore[return-value]
    # Primitives and ``Any``: the JSON value already is the value.
    return data
