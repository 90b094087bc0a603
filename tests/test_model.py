"""Pool model: identity enumeration, geometry rules, serialization."""

import math

import pytest

from poolkey import (
    CHANNEL_IDS,
    ConfigError,
    KeyPointClass,
    KeyPointId,
    PoolConfig,
    ValidationError,
    base_pixel_coordinates,
    build_base_model,
    canonical_channel_index,
    keypoint_for_channel,
    model_from_dict,
    model_to_dict,
    read_model,
    standard_configs,
    write_model,
)
from poolkey.model import LocationKind

LANE_CLASSES = [
    KeyPointClass.WALL_LEFT,
    KeyPointClass.WALL_RIGHT,
    KeyPointClass.FLOATING_LEFT,
    KeyPointClass.FLOATING_RIGHT,
    KeyPointClass.BULKHEAD_LEFT,
    KeyPointClass.BULKHEAD_RIGHT,
]


def test_channel_index_endpoints():
    assert canonical_channel_index(KeyPointId(KeyPointClass.WALL_LEFT, 0)) == 0
    assert canonical_channel_index(KeyPointId(KeyPointClass.WALL_RIGHT, 0)) == 13
    assert canonical_channel_index(KeyPointId(KeyPointClass.WALL_BOTTOM, 8)) == 95


def test_channel_index_is_a_bijection():
    seen = set()
    for kp in CHANNEL_IDS:
        index = canonical_channel_index(kp)
        assert 0 <= index <= 95
        assert keypoint_for_channel(index) == kp
        seen.add(index)
    assert len(seen) == 96


def test_index_range_enforced_per_class():
    KeyPointId(KeyPointClass.WALL_TOP, 8)
    with pytest.raises(ValidationError):
        KeyPointId(KeyPointClass.WALL_TOP, 9)
    with pytest.raises(ValidationError):
        KeyPointId(KeyPointClass.WALL_LEFT, 13)
    with pytest.raises(ValidationError):
        KeyPointId(KeyPointClass.WALL_LEFT, -1)


def test_label_round_trip_all_96():
    for kp in CHANNEL_IDS:
        assert KeyPointId.from_label(kp.label) == kp
    with pytest.raises(ValidationError):
        KeyPointId.from_label("wall_left_13")
    with pytest.raises(ValidationError):
        KeyPointId.from_label("pool_corner_1")
    with pytest.raises(ValidationError):
        KeyPointId.from_label("wall_left")


def test_ten_lane_fifty_meter_enumeration():
    """Hand-enumerated reference for the largest single-basin layout."""
    model = build_base_model(PoolConfig(lanes=10, length_m=50))
    for i in range(13):
        assert model.entry(KeyPointId(KeyPointClass.WALL_LEFT, i)).exists
        assert model.entry(KeyPointId(KeyPointClass.WALL_RIGHT, i)).exists
        assert model.entry(KeyPointId(KeyPointClass.FLOATING_LEFT, i)).exists
        assert not model.entry(KeyPointId(KeyPointClass.BULKHEAD_LEFT, i)).exists
    for i in range(9):
        top = model.entry(KeyPointId(KeyPointClass.WALL_TOP, i))
        assert top.exists
        assert top.location.x_m == 5.0 * (i + 1)
        assert top.location.y_m == 25.5
        bottom = model.entry(KeyPointId(KeyPointClass.WALL_BOTTOM, i))
        assert bottom.exists
        assert bottom.location.y_m == 0.0
    # independent ordinate table: 0, bumper, bumper + (k-1) lane widths, top
    expected = [0.0, 0.25] + [0.25 + k * 2.5 for k in range(1, 10)] + [25.25, 25.5]
    got = [
        model.entry(KeyPointId(KeyPointClass.WALL_LEFT, i)).location.y_m
        for i in range(13)
    ]
    assert got == pytest.approx(expected, abs=1e-12)


def test_six_lane_no_bumpers_existence():
    model = build_base_model(PoolConfig(lanes=6, length_m=25, bumpers=False))
    for cls in (KeyPointClass.BULKHEAD_LEFT, KeyPointClass.BULKHEAD_RIGHT):
        for i in range(13):
            assert not model.entry(KeyPointId(cls, i)).exists
    for cls in (KeyPointClass.WALL_LEFT, KeyPointClass.FLOATING_RIGHT):
        assert not model.entry(KeyPointId(cls, 1)).exists
        assert not model.entry(KeyPointId(cls, 11)).exists
        assert not model.entry(KeyPointId(cls, 7)).exists  # top bumper slot
        for i in range(2, 7):
            assert model.entry(KeyPointId(cls, i)).exists


def test_every_config_enumerates_96_entries():
    for config in standard_configs():
        model = build_base_model(config)
        assert len(model.entries) == 96
        assert set(model.entries) == set(CHANNEL_IDS)


def test_bumper_toggle_flips_exactly_two_indices_per_lane_class():
    for config in standard_configs(bumpers=True):
        without = build_base_model(
            PoolConfig(
                lanes=config.lanes,
                length_m=config.length_m,
                bumpers=False,
                bulkhead=config.bulkhead,
            )
        )
        with_bumpers = build_base_model(config)
        el = config.effective_lanes
        for cls in LANE_CLASSES:
            flipped = {
                i
                for i in range(13)
                if with_bumpers.entry(KeyPointId(cls, i)).exists
                != without.entry(KeyPointId(cls, i)).exists
            }
            if cls in (KeyPointClass.BULKHEAD_LEFT, KeyPointClass.BULKHEAD_RIGHT):
                expected = {1, el + 1} if config.bulkhead else set()
            else:
                expected = {1, el + 1}
            assert flipped == expected, (config.lanes, config.length_m, cls)


def test_ten_lane_flip_set_is_one_and_eleven():
    config = PoolConfig(lanes=10, length_m=50)
    el = config.effective_lanes
    assert {1, el + 1} == {1, 11}


def test_bulkhead_pools_drop_mid_length_wall_marks():
    for lanes in (12, 16, 20):
        model = build_base_model(PoolConfig(lanes=lanes, length_m=25, bulkhead=True))
        assert not model.entry(KeyPointId(KeyPointClass.WALL_TOP, 4)).exists
        assert not model.entry(KeyPointId(KeyPointClass.WALL_BOTTOM, 4)).exists
        assert model.entry(KeyPointId(KeyPointClass.WALL_TOP, 3)).exists
        assert model.entry(KeyPointId(KeyPointClass.WALL_TOP, 5)).exists
        # bulkhead points line up with the bulkhead plane at mid-basin
        for i in (0, 2, 12):
            entry = model.entry(KeyPointId(KeyPointClass.BULKHEAD_LEFT, i))
            assert entry.exists
            assert entry.location.x_m == 25.0


def test_fifty_meter_wall_marks_present_at_mid_length():
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    assert model.entry(KeyPointId(KeyPointClass.WALL_TOP, 4)).exists
    assert model.entry(KeyPointId(KeyPointClass.WALL_TOP, 4)).location.x_m == 25.0


def test_twenty_five_meter_wall_marks_stop_at_twenty():
    model = build_base_model(PoolConfig(lanes=8, length_m=25))
    for i in range(4):
        assert model.entry(KeyPointId(KeyPointClass.WALL_TOP, i)).exists
    for i in range(4, 9):
        assert not model.entry(KeyPointId(KeyPointClass.WALL_TOP, i)).exists


def test_left_right_symmetry():
    for config in standard_configs():
        model = build_base_model(config)
        basin = model.basin_length_m
        for i in range(13):
            left = model.entry(KeyPointId(KeyPointClass.WALL_LEFT, i))
            right = model.entry(KeyPointId(KeyPointClass.WALL_RIGHT, i))
            assert left.exists == right.exists
            if left.exists:
                assert left.location.y_m == right.location.y_m
                assert left.location.x_m == basin - right.location.x_m


def test_fixed_points_stay_inside_the_basin():
    for config in standard_configs():
        model = build_base_model(config)
        for kp in model.existing_ids():
            loc = model.entry(kp).location
            if loc.kind is LocationKind.FIXED_POINT:
                assert 0.0 <= loc.x_m <= model.basin_length_m
            assert 0.0 <= loc.y_m <= model.width_m


def test_floating_entries_are_lines_without_x():
    model = build_base_model(PoolConfig(lanes=8, length_m=50))
    entry = model.entry(KeyPointId(KeyPointClass.FLOATING_LEFT, 0))
    assert entry.exists
    assert entry.location.kind is LocationKind.HORIZONTAL_LINE
    assert entry.location.x_m is None
    assert entry.location.y_m == 0.0


def test_config_rules_rejected_with_named_rule():
    with pytest.raises(ConfigError, match="lane count"):
        PoolConfig(lanes=7, length_m=50)
    with pytest.raises(ConfigError, match="length"):
        PoolConfig(lanes=8, length_m=30)
    with pytest.raises(ConfigError, match="25"):
        PoolConfig(lanes=16, length_m=50, bulkhead=True)
    with pytest.raises(ConfigError, match="bulkhead"):
        PoolConfig(lanes=8, length_m=50, bulkhead=True)
    with pytest.raises(ConfigError, match="bulkhead"):
        PoolConfig(lanes=12, length_m=25, bulkhead=False)


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["lane_width_m", "bumper_width_m"])
def test_config_widths_must_be_positive_and_finite(name, width):
    with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
        PoolConfig(lanes=8, length_m=50, **{name: width})
    doc = model_to_dict(build_base_model(PoolConfig(lanes=8, length_m=50)))
    with pytest.raises(ConfigError, match=name):
        model_from_dict({**doc, "config": {**doc["config"], name: width}})


@pytest.mark.parametrize("name", ["lane_width_m", "bumper_width_m"])
def test_a_width_beyond_the_float_range_is_refused(name):
    # such an int compares below math.inf, and width_m raised OverflowError
    with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
        PoolConfig(lanes=8, length_m=50, **{name: 10**400})
    doc = model_to_dict(build_base_model(PoolConfig(lanes=8, length_m=50)))
    with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
        model_from_dict({**doc, "config": {**doc["config"], name: 10**400}})


@pytest.mark.parametrize("width", [10**308, 1e308])
@pytest.mark.parametrize("name", ["lane_width_m", "bumper_width_m"])
def test_a_pool_wider_than_the_float_range_is_refused(name, width):
    # each width fits a float; the pool's sum of them does not
    with pytest.raises(ConfigError, match="the pool width must be finite"):
        PoolConfig(lanes=8, length_m=50, **{name: width})
    doc = model_to_dict(build_base_model(PoolConfig(lanes=8, length_m=50)))
    with pytest.raises(ConfigError, match="the pool width must be finite"):
        model_from_dict({**doc, "config": {**doc["config"], name: width}})
    assert PoolConfig(lanes=8, length_m=50, **{name: width // 100}).width_m > 0


def test_standard_configs_cover_the_nine_pool_types():
    configs = standard_configs()
    assert len(configs) == 9
    labels = {(c.lanes, c.length_m) for c in configs}
    assert labels == {
        (6, 25), (6, 50), (8, 25), (8, 50), (10, 25), (10, 50),
        (12, 25), (16, 25), (20, 25),
    }
    for c in configs:
        assert c.bulkhead == (c.lanes > 10)


def test_bulkhead_pool_geometry_doubles_the_basin():
    config = PoolConfig(lanes=16, length_m=25, bulkhead=True)
    assert config.effective_lanes == 8
    assert config.basin_length_m == 50.0
    assert config.width_m == 8 * 2.5 + 2 * 0.25


def test_base_pixel_coordinates_examples():
    model = build_base_model(PoolConfig(lanes=10, length_m=50))
    coords = dict(base_pixel_coordinates(model, 20.0))
    origin = coords[KeyPointId(KeyPointClass.WALL_LEFT, 0)]
    assert (origin.x_px, origin.y_px) == (0.0, 0.0)
    top_corner = coords[KeyPointId(KeyPointClass.WALL_LEFT, 12)]
    assert (top_corner.x_px, top_corner.y_px) == (0.0, 510.0)
    wall_top_1 = coords[KeyPointId(KeyPointClass.WALL_TOP, 1)]
    assert (wall_top_1.x_px, wall_top_1.y_px) == (200.0, 510.0)
    rope = coords[KeyPointId(KeyPointClass.FLOATING_LEFT, 2)]
    assert rope.x_px is None
    assert math.isclose(rope.y_px, (0.25 + 2.5) * 20.0)


def test_base_pixel_coordinates_rejects_bad_scale():
    model = build_base_model(PoolConfig(lanes=6, length_m=25))
    with pytest.raises(ValidationError):
        base_pixel_coordinates(model, 0.0)


def test_model_serialization_round_trip(tmp_path):
    for config in standard_configs():
        model = build_base_model(config)
        assert model_from_dict(model_to_dict(model)) == model
    model = build_base_model(PoolConfig(lanes=8, length_m=25, bumpers=False))
    path = tmp_path / "model.json"
    write_model(model, path)
    assert read_model(path) == model


def test_serialized_document_shape():
    model = build_base_model(PoolConfig(lanes=6, length_m=25))
    doc = model_to_dict(model)
    assert doc["config"]["lanes"] == 6
    assert len(doc["entries"]) == 96
    by_key = {(e["class"], e["index"]): e for e in doc["entries"]}
    absent = by_key[("bulkhead_left", 3)]
    assert absent == {"class": "bulkhead_left", "index": 3, "exists": False}
    line = by_key[("floating_left", 2)]
    assert line["kind"] == "horizontal_line"
    assert "x_m" not in line
    point = by_key[("wall_left", 0)]
    assert point["kind"] == "fixed_point"
    assert point["x_m"] == 0.0 and point["y_m"] == 0.0


def test_model_from_dict_rejects_bad_documents():
    model = build_base_model(PoolConfig(lanes=6, length_m=25))
    doc = model_to_dict(model)
    broken = dict(doc, entries=doc["entries"][:-1])
    with pytest.raises(ValidationError):
        model_from_dict(broken)
    with pytest.raises(ValidationError):
        model_from_dict({"entries": doc["entries"]})


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_base_pixel_coordinates_rejects_non_finite_scale(scale):
    model = build_base_model(PoolConfig(lanes=6, length_m=25))
    with pytest.raises(ValidationError, match="scale_px_per_m"):
        base_pixel_coordinates(model, scale)
