"""Base pool model: the 96 canonical key-point identities and their geometry.

A pool is described by its lane count, course length, and whether bumper
lanes and a bulkhead are present. The model assigns every key-point identity
an existence flag and, for existing ones, a location in a metric base frame:
origin at the bottom-left pool corner, x toward the right wall, y toward the
top wall. Wall and bulkhead key-points are fixed points; floating key-points
only pin down a horizontal line, because their image position depends on
where the lane-rope leaves the camera frame.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, FormatError, ValidationError


class KeyPointClass(enum.Enum):
    """The eight key-point families. Declaration order fixes channel order."""

    WALL_LEFT = "wall_left"
    WALL_RIGHT = "wall_right"
    FLOATING_LEFT = "floating_left"
    FLOATING_RIGHT = "floating_right"
    BULKHEAD_LEFT = "bulkhead_left"
    BULKHEAD_RIGHT = "bulkhead_right"
    WALL_TOP = "wall_top"
    WALL_BOTTOM = "wall_bottom"

    @property
    def lane_indexed(self) -> bool:
        """True for classes indexed by lane-rope number (0-12)."""
        return self not in (KeyPointClass.WALL_TOP, KeyPointClass.WALL_BOTTOM)

    @property
    def index_count(self) -> int:
        return 13 if self.lane_indexed else 9


CLASS_ORDER: tuple[KeyPointClass, ...] = tuple(KeyPointClass)

_CLASS_OFFSET: dict[KeyPointClass, int] = {}
_offset = 0
for _cls in CLASS_ORDER:
    _CLASS_OFFSET[_cls] = _offset
    _offset += _cls.index_count
CHANNEL_COUNT = _offset


@dataclass(frozen=True)
class KeyPointId:
    """One of the 96 canonical key-point identities."""

    cls: KeyPointClass
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.cls.index_count:
            raise ValidationError(
                f"index {self.index} out of range [0, {self.cls.index_count - 1}] "
                f"for class {self.cls.value}"
            )

    @property
    def label(self) -> str:
        """Snake-case wire name, e.g. 'wall_left_0'."""
        return f"{self.cls.value}_{self.index}"

    @classmethod
    def from_label(cls, label: str) -> KeyPointId:
        stem, sep, tail = label.rpartition("_")
        if sep and tail.isdigit():
            for kp_cls in CLASS_ORDER:
                if kp_cls.value == stem:
                    try:
                        return cls(kp_cls, int(tail))
                    except ValidationError:
                        raise ValidationError(
                            f"key-point index out of range in label {label!r}"
                        ) from None
        raise ValidationError(f"unknown key-point label: {label!r}")


CHANNEL_IDS: tuple[KeyPointId, ...] = tuple(
    KeyPointId(c, i) for c in CLASS_ORDER for i in range(c.index_count)
)


def canonical_channel_index(kp: KeyPointId) -> int:
    """Map a key-point identity to its volume channel in [0, 96)."""
    return _CLASS_OFFSET[kp.cls] + kp.index


def keypoint_for_channel(channel: int) -> KeyPointId:
    if not 0 <= channel < CHANNEL_COUNT:
        raise ValidationError(f"channel {channel} out of range [0, {CHANNEL_COUNT})")
    return CHANNEL_IDS[channel]


_LANE_COUNTS = (6, 8, 10, 12, 16, 20)
_BULKHEAD_LANE_COUNTS = (12, 16, 20)


@dataclass(frozen=True)
class PoolConfig:
    """Pool type: lane count, course length in meters, and fittings.

    Lane counts above 10 describe a 50 m basin split by a bulkhead into two
    25 m courses, so they always come with bulkhead=True and length_m=25.
    """

    lanes: int
    length_m: int
    bumpers: bool = True
    bulkhead: bool = False
    lane_width_m: float = 2.5
    bumper_width_m: float = 0.25
    bulkhead_x_m: float | None = None

    def __post_init__(self):
        if self.lanes not in _LANE_COUNTS:
            raise ConfigError(
                f"unsupported lane count {self.lanes}; expected one of {_LANE_COUNTS}"
            )
        if self.length_m not in (25, 50):
            raise ConfigError(
                f"unsupported course length {self.length_m}; expected 25 or 50"
            )
        if self.lanes > 10 and self.length_m != 25:
            raise ConfigError("pools with more than 10 lanes are 25 m courses")
        if self.bulkhead and self.lanes not in _BULKHEAD_LANE_COUNTS:
            raise ConfigError(
                f"a bulkhead requires 12, 16, or 20 lanes, not {self.lanes}"
            )
        if self.lanes in _BULKHEAD_LANE_COUNTS and not self.bulkhead:
            raise ConfigError(f"{self.lanes} lanes imply a bulkhead")
        if self.lane_width_m <= 0:
            raise ConfigError("lane_width_m must be positive")
        if self.bumper_width_m <= 0:
            raise ConfigError("bumper_width_m must be positive")
        if self.bulkhead_x_m is not None:
            if not self.bulkhead:
                raise ConfigError("bulkhead_x_m set on a pool without a bulkhead")
            if not 0 < self.bulkhead_x_m < self.basin_length_m:
                raise ConfigError(
                    f"bulkhead_x_m must lie inside (0, {self.basin_length_m})"
                )

    @property
    def effective_lanes(self) -> int:
        """Physical lanes across the basin; halved for bulkhead pools."""
        return self.lanes if self.lanes <= 10 else self.lanes // 2

    @property
    def basin_length_m(self) -> float:
        """Physical basin length; a bulkhead pool is two courses end to end."""
        return float(self.length_m * 2 if self.bulkhead else self.length_m)

    @property
    def width_m(self) -> float:
        bumper = 2.0 * self.bumper_width_m if self.bumpers else 0.0
        return self.effective_lanes * self.lane_width_m + bumper

    @property
    def resolved_bulkhead_x_m(self) -> float | None:
        if not self.bulkhead:
            return None
        if self.bulkhead_x_m is not None:
            return self.bulkhead_x_m
        return self.basin_length_m / 2.0


def standard_configs(bumpers: bool = True) -> tuple[PoolConfig, ...]:
    """The nine supported pool types."""
    plain = [
        PoolConfig(lanes, length, bumpers=bumpers)
        for lanes in (6, 8, 10)
        for length in (25, 50)
    ]
    split = [
        PoolConfig(lanes, 25, bumpers=bumpers, bulkhead=True)
        for lanes in _BULKHEAD_LANE_COUNTS
    ]
    return tuple(plain + split)


class LocationKind(enum.Enum):
    FIXED_POINT = "fixed_point"
    HORIZONTAL_LINE = "horizontal_line"


@dataclass(frozen=True)
class BaseLocation:
    """Where a key-point lives in the base frame, in meters."""

    kind: LocationKind
    x_m: float | None
    y_m: float

    def __post_init__(self):
        if self.kind is LocationKind.FIXED_POINT and self.x_m is None:
            raise ValidationError("fixed point location requires x_m")
        if self.kind is LocationKind.HORIZONTAL_LINE and self.x_m is not None:
            raise ValidationError("horizontal line location must not carry x_m")

    @classmethod
    def fixed(cls, x_m: float, y_m: float) -> BaseLocation:
        return cls(LocationKind.FIXED_POINT, float(x_m), float(y_m))

    @classmethod
    def line(cls, y_m: float) -> BaseLocation:
        return cls(LocationKind.HORIZONTAL_LINE, None, float(y_m))


@dataclass(frozen=True)
class ModelEntry:
    exists: bool
    location: BaseLocation | None

    def __post_init__(self):
        if self.exists != (self.location is not None):
            raise ValidationError("entry existence and location must agree")


@dataclass(frozen=True)
class BasePoolModel:
    """Existence flag and base-frame location for all 96 key-point ids."""

    config: PoolConfig
    entries: dict[KeyPointId, ModelEntry]

    def __post_init__(self):
        if len(self.entries) != CHANNEL_COUNT or set(self.entries) != set(CHANNEL_IDS):
            raise ValidationError(
                f"model must carry exactly the {CHANNEL_COUNT} canonical entries"
            )

    @property
    def width_m(self) -> float:
        return self.config.width_m

    @property
    def basin_length_m(self) -> float:
        return self.config.basin_length_m

    def entry(self, kp: KeyPointId) -> ModelEntry:
        return self.entries[kp]

    def existing_ids(self) -> tuple[KeyPointId, ...]:
        return tuple(kp for kp in CHANNEL_IDS if self.entries[kp].exists)


def build_base_model(config: PoolConfig) -> BasePoolModel:
    """Lay out the 96 key-points for one pool configuration.

    Lane-rope indices are assigned bottom-up: index 0 and 12 are the pool
    corners, index 1 is the bottom bumper lane-rope when bumpers are present,
    index k+1 separates lanes k and k+1, and the top bumper sits at index
    n+1 for an n-lane basin. Top and bottom wall marks repeat every 5 m of
    basin length; the mid-basin mark (index 4) is displaced by a bulkhead.
    """
    lanes = config.effective_lanes
    lane_w = config.lane_width_m
    bumper = config.bumper_width_m if config.bumpers else 0.0
    height = config.width_m
    length = config.basin_length_m
    bulkhead_x = config.resolved_bulkhead_x_m

    def lane_ordinate(index: int) -> float | None:
        if index == 0:
            return 0.0
        if index == 12:
            return height
        if index == 1:
            return bumper if config.bumpers else None
        if 2 <= index <= lanes:
            return bumper + (index - 1) * lane_w
        if index == lanes + 1 and config.bumpers:
            return height - config.bumper_width_m
        return None

    absent = ModelEntry(False, None)
    entries: dict[KeyPointId, ModelEntry] = {}
    for kp in CHANNEL_IDS:
        cls = kp.cls
        if not cls.lane_indexed:
            x = 5.0 * (kp.index + 1)
            if x >= length or (config.bulkhead and kp.index == 4):
                entries[kp] = absent
                continue
            y = height if cls is KeyPointClass.WALL_TOP else 0.0
            entries[kp] = ModelEntry(True, BaseLocation.fixed(x, y))
            continue
        y = lane_ordinate(kp.index)
        if y is None:
            entries[kp] = absent
        elif cls is KeyPointClass.WALL_LEFT:
            entries[kp] = ModelEntry(True, BaseLocation.fixed(0.0, y))
        elif cls is KeyPointClass.WALL_RIGHT:
            entries[kp] = ModelEntry(True, BaseLocation.fixed(length, y))
        elif cls in (KeyPointClass.FLOATING_LEFT, KeyPointClass.FLOATING_RIGHT):
            entries[kp] = ModelEntry(True, BaseLocation.line(y))
        elif config.bulkhead:
            entries[kp] = ModelEntry(True, BaseLocation.fixed(bulkhead_x, y))
        else:
            entries[kp] = absent
    return BasePoolModel(config=config, entries=entries)


@dataclass(frozen=True)
class PixelLocation:
    """A base-frame location rendered at a fixed pixels-per-meter scale."""

    kind: LocationKind
    x_px: float | None
    y_px: float


def base_pixel_coordinates(
    model: BasePoolModel, scale_px_per_m: float
) -> list[tuple[KeyPointId, PixelLocation]]:
    """Existing key-points in base-image pixels, canonical channel order."""
    if scale_px_per_m <= 0:
        raise ValidationError("scale_px_per_m must be positive")
    out = []
    for kp in CHANNEL_IDS:
        entry = model.entries[kp]
        if not entry.exists:
            continue
        loc = entry.location
        x_px = None if loc.x_m is None else loc.x_m * scale_px_per_m
        out.append((kp, PixelLocation(loc.kind, x_px, loc.y_m * scale_px_per_m)))
    return out


def model_to_dict(model: BasePoolModel) -> dict:
    config = model.config
    config_doc = {
        "lanes": config.lanes,
        "length_m": config.length_m,
        "bumpers": config.bumpers,
        "bulkhead": config.bulkhead,
        "lane_width_m": config.lane_width_m,
        "bumper_width_m": config.bumper_width_m,
    }
    if config.bulkhead_x_m is not None:
        config_doc["bulkhead_x_m"] = config.bulkhead_x_m
    entries = []
    for kp in CHANNEL_IDS:
        entry = model.entries[kp]
        doc = {"class": kp.cls.value, "index": kp.index, "exists": entry.exists}
        if entry.exists:
            doc["kind"] = entry.location.kind.value
            if entry.location.x_m is not None:
                doc["x_m"] = entry.location.x_m
            doc["y_m"] = entry.location.y_m
        entries.append(doc)
    return {"config": config_doc, "entries": entries}


def _require(data: dict, field: str, kind, context: str):
    if field not in data:
        raise ValidationError(f'{context}: missing field "{field}"')
    value = data[field]
    # bool passes isinstance(int) checks, which is never what a count means
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(f'{context}: field "{field}" has the wrong type')
    return value


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _read_json(path: str | Path) -> dict:
    text = Path(path).read_text()
    try:
        # json accepts NaN and Infinity, which no poolkey file may hold
        data = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    return data


def model_from_dict(doc: dict) -> BasePoolModel:
    if not isinstance(doc, dict):
        raise ValidationError("model document must be an object")
    cfg = _require(doc, "config", dict, "model")
    items = _require(doc, "entries", list, "model")
    sizes = {
        name: _require(cfg, name, (int, float), "model config")
        for name in ("lane_width_m", "bumper_width_m", "bulkhead_x_m")
        if cfg.get(name) is not None
    }
    flags = {
        name: _require(cfg, name, bool, "model config")
        for name in ("bumpers", "bulkhead")
        if name in cfg
    }
    config = PoolConfig(
        lanes=_require(cfg, "lanes", int, "model config"),
        length_m=_require(cfg, "length_m", int, "model config"),
        **flags,
        **sizes,
    )
    entries: dict[KeyPointId, ModelEntry] = {}
    for item in items:
        if not isinstance(item, dict):
            raise ValidationError("each entry must be an object")
        try:
            kp = KeyPointId.from_label(f"{item['class']}_{item['index']}")
        except KeyError as exc:
            raise ValidationError(f"missing entry field: {exc.args[0]}") from None
        if kp in entries:
            raise ValidationError(f"duplicate entry for {kp.label}")
        where = f"model entry {kp.label}"
        if not _require(item, "exists", bool, where):
            entries[kp] = ModelEntry(False, None)
            continue
        try:
            kind = LocationKind(item["kind"])
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"bad location for {kp.label}: {exc}") from None
        x_m = item.get("x_m")
        if x_m is not None:
            x_m = _require(item, "x_m", (int, float), where)
        y_m = _require(item, "y_m", (int, float), where)
        entries[kp] = ModelEntry(True, BaseLocation(kind, x_m, y_m))
    return BasePoolModel(config=config, entries=entries)


def write_model(model: BasePoolModel, path: str | Path) -> None:
    text = json.dumps(model_to_dict(model), indent=2) + "\n"
    Path(path).write_text(text)


def read_model(path: str | Path) -> BasePoolModel:
    return model_from_dict(_read_json(path))
