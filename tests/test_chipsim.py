import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmsig import chipsim
from nvmsig.chipsim import (
    BUILTIN_CATALOG,
    ChipClassSpec,
    OpKind,
    Technology,
    cycle_location,
    dump_catalog,
    expected_latency,
    full_chip_scan,
    latency_block,
    load_catalog,
    mean_latency_curve,
    new_chip,
)
from nvmsig.errors import ParseError, ValidationError


def toy_spec(**kw):
    base = dict(
        class_tag=0, manufacturer="Acme", capacity_label="1Mb",
        technology=Technology.NOR_FLASH, op_kind=OpKind.SECTOR_ERASE,
        num_locations=64, base_latency_us=100.0, drift_amplitude=1.0,
        drift_exponent=1.0, drift_ref_cycles=10000, noise_sigma=0.02,
        chip_sigma=0.05, loc_sigma=0.02,
    )
    base.update(kw)
    return ChipClassSpec(**base)


def test_builtin_catalog_shape():
    assert len(BUILTIN_CATALOG) == 9
    assert [s.class_tag for s in BUILTIN_CATALOG] == list(range(9))
    for s in BUILTIN_CATALOG:
        if s.technology is Technology.NOR_FLASH:
            assert s.op_kind is OpKind.SECTOR_ERASE
        else:
            assert s.op_kind is OpKind.PAGE_WRITE


def test_builtin_catalog_is_load_catalog_default():
    assert load_catalog("builtin") == list(BUILTIN_CATALOG)


@pytest.mark.parametrize("bad", [
    dict(class_tag=9),
    dict(class_tag=-1),
    dict(base_latency_us=0.0),
    dict(num_locations=63),
    dict(drift_exponent=0.0),
    dict(drift_exponent=2.5),
    dict(drift_amplitude=-0.1),
    dict(noise_sigma=-0.01),
    dict(step_cycles=1000),                 # factor missing
    dict(step_factor=1.2),                  # cycles missing
    dict(step_cycles=1000, step_factor=0.9),
    dict(technology=Technology.CBRAM),      # still SECTOR_ERASE
    dict(op_kind=OpKind.PAGE_WRITE),        # NOR with write op
    dict(base_latency_us=math.nan),
    dict(noise_sigma=math.inf),
    dict(step_cycles=1000, step_factor=math.inf),
])
def test_spec_validation_rejects(bad):
    with pytest.raises(ValidationError):
        toy_spec(**bad)


def test_catalog_round_trip(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text(dump_catalog(BUILTIN_CATALOG), encoding="utf-8")
    assert load_catalog(path) == list(BUILTIN_CATALOG)


def test_builtin_catalog_text_is_pinned():
    text = dump_catalog(BUILTIN_CATALOG)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "7c32268ad65dbb990ef047a10b5e4d2e11e1b814e9b364f32b1f907f1e7fa0c0"


def test_catalog_round_trip_quotes_a_comma_and_a_quote(tmp_path):
    specs = [toy_spec(manufacturer='Acme, "Labs" Inc.', step_cycles=5000,
                      step_factor=1.25),
             toy_spec(class_tag=1, capacity_label="2,048kb")]
    path = tmp_path / "cat.csv"
    text = dump_catalog(specs)
    path.write_text(text, encoding="utf-8")
    assert '"Acme, ""Labs"" Inc."' in text and '"2,048kb"' in text
    assert load_catalog(path) == specs


def test_catalog_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "cat.csv"
    text = dump_catalog(BUILTIN_CATALOG)
    lines = text.splitlines()
    row = lines[3].split(",")
    row[6] = "not_a_number"  # base_latency_us column
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 4"):
        load_catalog(path)


def test_catalog_integer_beyond_int64_is_parse_error(tmp_path):
    path = tmp_path / "cat.csv"
    lines = dump_catalog(BUILTIN_CATALOG).splitlines()
    row = lines[2].split(",")
    row[5] = "99999999999999999999"  # num_locations column
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3: .*int64"):
        load_catalog(path)


def test_catalog_non_finite_real_is_parse_error(tmp_path):
    path = tmp_path / "cat.csv"
    lines = dump_catalog(BUILTIN_CATALOG).splitlines()
    row = lines[1].split(",")
    row[6] = "nan"  # base_latency_us column
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 2: base_latency_us must be finite"):
        load_catalog(path)


def test_new_chip_too_large_to_allocate_is_validation_error():
    with pytest.raises(ValidationError,
                       match="class3: cannot allocate 4611686018427387904 locations"):
        new_chip(toy_spec(class_tag=3, num_locations=1 << 62), 1)


def test_catalog_duplicate_tag_rejected(tmp_path):
    path = tmp_path / "cat.csv"
    spec = toy_spec()
    rows = dump_catalog([spec, spec])
    path.write_text(rows, encoding="utf-8")
    with pytest.raises(ParseError, match="^line 3: duplicate"):
        load_catalog(path)


def test_catalog_bad_header(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_catalog(path)


def test_new_chip_deterministic():
    spec = BUILTIN_CATALOG[3]
    a = new_chip(spec, 1234)
    b = new_chip(spec, 1234)
    assert a.chip_factor == b.chip_factor
    assert np.array_equal(a.loc_factor, b.loc_factor)
    assert np.array_equal(a.wear, np.zeros(spec.num_locations, dtype=np.int64))


def test_different_seeds_differ():
    spec = BUILTIN_CATALOG[0]
    a = new_chip(spec, 1)
    b = new_chip(spec, 2)
    assert a.chip_factor != b.chip_factor
    assert not np.array_equal(a.loc_factor, b.loc_factor)


def test_zero_chip_sigma_gives_unit_factor():
    chip = new_chip(toy_spec(chip_sigma=0.0), 7)
    assert chip.chip_factor == 1.0


def test_chip_factor_monte_carlo_stdev():
    spec = toy_spec(chip_sigma=0.05)
    factors = np.array([new_chip(spec, s).chip_factor for s in range(100)])
    sd = factors.std(ddof=1)
    assert 0.035 <= sd <= 0.065
    assert abs(factors.mean() - 1.0) < 0.02


def test_noise_free_latency_matches_formula():
    spec = toy_spec(noise_sigma=0.0, chip_sigma=0.0, loc_sigma=0.0)
    chip = new_chip(spec, 99)
    fresh = latency_block(new_chip(spec, 99), 5, 1)
    assert fresh[0] == pytest.approx(100.0, abs=0.011)  # no drift at wear 0
    cycle_location(chip, 5, 10000)
    # drift term: 1 + 1.0 * (10000/10000)**1.0 = 2.0
    assert latency_block(chip, 5, 1)[0] == pytest.approx(200.0, abs=0.011)


def test_step_applies_at_threshold():
    spec = toy_spec(noise_sigma=0.0, chip_sigma=0.0, loc_sigma=0.0,
                    drift_amplitude=0.0, step_cycles=1000, step_factor=1.5)
    chip = new_chip(spec, 1)
    cycle_location(chip, 0, 999)
    assert latency_block(chip, 0, 1)[0] == pytest.approx(100.0, abs=0.011)
    # wear is now exactly 1000
    assert latency_block(chip, 0, 1)[0] == pytest.approx(150.0, abs=0.011)


def test_expected_latency_matches_sample_when_noiseless():
    spec = toy_spec(noise_sigma=0.0)
    chip = new_chip(spec, 11)
    cycle_location(chip, 3, 5000)
    want = expected_latency(chip, 3, 5000)
    assert latency_block(chip, 3, 1)[0] == pytest.approx(float(want), abs=0.006)


def test_sampling_is_order_independent():
    spec = BUILTIN_CATALOG[4]
    c1 = new_chip(spec, 42)
    c2 = new_chip(spec, 42)
    a1 = [latency_block(c1, 0, 1)[0] for _ in range(5)]
    b1 = [latency_block(c1, 9, 1)[0] for _ in range(5)]
    # interleave in the other chip
    b2, a2 = [], []
    for _ in range(5):
        b2.append(latency_block(c2, 9, 1)[0])
        a2.append(latency_block(c2, 0, 1)[0])
    assert a1 == a2
    assert b1 == b2


def test_latency_block_equals_repeated_samples():
    spec = BUILTIN_CATALOG[1]
    c1 = new_chip(spec, 5)
    c2 = new_chip(spec, 5)
    cycle_location(c1, 7, 998)
    cycle_location(c2, 7, 998)
    block = latency_block(c1, 7, 50)
    singles = np.concatenate([latency_block(c2, 7, 1) for _ in range(50)])
    assert np.array_equal(block, singles)
    assert c1.wear[7] == c2.wear[7] == 1048


def test_cycle_location_is_additive():
    spec = BUILTIN_CATALOG[2]
    c1 = new_chip(spec, 3)
    c2 = new_chip(spec, 3)
    cycle_location(c1, 0, 700)
    cycle_location(c1, 0, 300)
    cycle_location(c2, 0, 1000)
    assert c1.wear[0] == c2.wear[0]
    assert latency_block(c1, 0, 1)[0] == latency_block(c2, 0, 1)[0]


def test_full_chip_scan_advances_every_location():
    chip = new_chip(BUILTIN_CATALOG[0], 17)
    cycle_location(chip, 4, 50)
    scan = full_chip_scan(chip)
    assert scan.dtype == np.float64 and scan.shape == (chip.spec.num_locations,)
    want = np.ones(chip.spec.num_locations, dtype=np.int64)
    want[4] += 50
    assert np.array_equal(chip.wear, want)


def test_scan_peaks_at_highest_loc_factor_when_noiseless():
    spec = toy_spec(noise_sigma=0.0, loc_sigma=0.05)
    chip = new_chip(spec, 21)
    scan = full_chip_scan(chip)
    assert int(np.argmax(scan)) == int(np.argmax(chip.loc_factor))


def test_address_bounds_checked():
    chip = new_chip(BUILTIN_CATALOG[5], 1)
    with pytest.raises(ValidationError):
        latency_block(chip, chip.spec.num_locations, 1)
    with pytest.raises(ValidationError):
        latency_block(chip, chip.spec.num_locations, 5)
    with pytest.raises(ValidationError):
        cycle_location(chip, -1, 10)
    with pytest.raises(ValidationError):
        latency_block(chip, 0, 0)


def test_wear_counter_cannot_pass_int64():
    chip = new_chip(BUILTIN_CATALOG[5], 1)
    cycle_location(chip, 3, (1 << 63) - 2)
    with pytest.raises(ValidationError, match="int64"):
        cycle_location(chip, 3, 2)
    with pytest.raises(ValidationError, match="int64"):
        cycle_location(chip, 4, 1 << 64)
    assert chip.wear[3] == (1 << 63) - 2 and chip.wear[4] == 0


def test_latency_block_cannot_pass_int64():
    chip = new_chip(BUILTIN_CATALOG[5], 1)
    cycle_location(chip, 3, (1 << 63) - 2)
    with pytest.raises(ValidationError, match="int64"):
        latency_block(chip, 3, 2)
    with pytest.raises(ValidationError, match="int64"):
        latency_block(chip, 4, 1 << 64)
    assert chip.wear[3] == (1 << 63) - 2 and chip.wear[4] == 0
    assert latency_block(chip, 3, 1).shape == (1,)
    assert chip.wear[3] == (1 << 63) - 1


# sizes that numpy refuses outright, so no host can grant them; np.arange
# alone would give an empty array for the second
@pytest.mark.parametrize("n", [1 << 62, (1 << 63) - 1], ids=["2^62", "2^63-1"])
def test_latency_block_too_large_to_allocate_is_validation_error(n):
    chip = new_chip(BUILTIN_CATALOG[0], 1)
    with pytest.raises(ValidationError, match="cannot allocate"):
        latency_block(chip, 0, n)
    assert chip.wear[0] == 0


def test_latency_sample_cannot_pass_int64():
    chip = new_chip(BUILTIN_CATALOG[5], 1)
    cycle_location(chip, 3, (1 << 63) - 1)
    with pytest.raises(ValidationError, match="int64"):
        latency_block(chip, 3, 1)
    assert chip.wear[3] == (1 << 63) - 1


def test_mean_curve_monotone_for_all_builtin_classes():
    wears = np.arange(0, 60000, 250)
    for spec in BUILTIN_CATALOG:
        curve = mean_latency_curve(spec, wears)
        assert np.all(np.diff(curve) >= 0), spec.label
        assert curve[0] == pytest.approx(spec.base_latency_us)


def test_noise_magnitude_statistics():
    # log-latency spread at fixed wear across many addresses ~ noise+loc
    spec = toy_spec(chip_sigma=0.0, loc_sigma=0.0, noise_sigma=0.03,
                    num_locations=4096)
    chip = new_chip(spec, 31)
    scan = full_chip_scan(chip)
    sd = np.log(scan).std(ddof=1)
    assert 0.025 <= sd <= 0.035


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), addr=st.integers(0, 63),
       wear=st.integers(0, 200000))
def test_quantization_and_positivity(seed, addr, wear):
    chip = new_chip(BUILTIN_CATALOG[7] if addr < 32 else BUILTIN_CATALOG[8], seed)
    cycle_location(chip, addr, wear)
    lat = float(latency_block(chip, addr, 1)[0])
    assert lat > 0
    scaled = lat / chipsim.QUANTUM_US
    assert abs(scaled - round(scaled)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), wear=st.integers(0, 50000))
def test_expectation_increases_with_wear(seed, wear):
    chip = new_chip(BUILTIN_CATALOG[0], seed)
    lo = expected_latency(chip, 0, wear)
    hi = expected_latency(chip, 0, wear + 5000)
    assert hi > lo
