"""Identification, recycled verdicts, and used-region localization."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvmsig.chipsim import (
    SpatialLatencyMap,
    cycle_location,
    full_chip_scan,
    latency_block,
    load_catalog,
    mean_latency_curve,
    new_chip,
)
from nvmsig.classifiers import train_knn
from nvmsig.detector import (
    DetectionReport,
    FreshBaseline,
    RecycledVerdict,
    UsedRegion,
    baseline_from_catalog,
    detect_recycled,
    diagnose_probe,
    identify_manufacturer,
    load_map,
    locate_used_regions,
    save_map,
)
from nvmsig.errors import ParseError, ValidationError
from nvmsig.protocol import build_dataset, split

CATALOG = load_catalog()
SPEC = {s.class_tag: s for s in CATALOG}


@pytest.fixture(scope="module")
def default_model():
    ds = build_dataset(CATALOG, seed=1)
    train, _ = split(ds, train_fraction=0.8, seed=1)
    return train_knn(train), train


def fresh_probe(tag, seed, addr=0, n=100):
    return latency_block(new_chip(SPEC[tag], seed), addr, n)


# ---------------------------------------------------------- identification

def test_identify_class7_probes_mostly_class7(default_model):
    model, _ = default_model
    hits = 0
    for i in range(200):
        spec = SPEC[7]
        tag, _ = identify_manufacturer(
            fresh_probe(7, 40_000 + i, addr=i % spec.num_locations), model)
        hits += tag == 7
    assert hits >= 180


def test_identify_training_sample_copy_gets_its_label(default_model):
    model, train = default_model
    for tag in np.unique(train.y):
        row = int(np.nonzero(train.y == tag)[0][0])
        got, _ = identify_manufacturer(train.X[row], model)
        assert got == tag


def test_identify_wrong_arity_rejected(default_model):
    model, _ = default_model
    with pytest.raises(ValidationError):
        identify_manufacturer(np.ones(99), model)
    with pytest.raises(ValidationError):
        identify_manufacturer(np.ones(101), model)


def test_identify_is_pure(default_model):
    model, _ = default_model
    probe = fresh_probe(3, 77)
    first = identify_manufacturer(probe, model)
    second = identify_manufacturer(probe, model)
    assert first == second


def test_identify_score_detail_covers_all_classes(default_model):
    model, _ = default_model
    tag, detail = identify_manufacturer(fresh_probe(4, 5), model)
    assert sorted(detail) == sorted(int(t) for t in model.tags)
    assert detail[tag] == max(detail.values())


def test_identify_rejects_nonpositive_probe(default_model):
    model, _ = default_model
    bad = np.ones(100)
    bad[3] = -1.0
    with pytest.raises(ValidationError):
        identify_manufacturer(bad, model)


# ------------------------------------------------------- recycled detection

def test_detect_fresh_probe_is_fresh():
    base = baseline_from_catalog(CATALOG)
    verdict, ratio = detect_recycled(fresh_probe(4, 11, addr=3), 4, base)
    assert verdict is RecycledVerdict.FRESH
    assert ratio == pytest.approx(1.0, abs=0.05)


def test_detect_precycled_probe_is_used():
    chip = new_chip(SPEC[0], 21)
    cycle_location(chip, 5, 30_000)
    probe = latency_block(chip, 5, 100)
    verdict, ratio = detect_recycled(probe, 0, baseline_from_catalog(CATALOG))
    assert verdict is RecycledVerdict.USED
    assert ratio > 2.0


def test_detect_ratio_1_2_is_indeterminate():
    base = FreshBaseline({3: 100.0})
    verdict, ratio = detect_recycled(np.full(100, 120.0), 3, base)
    assert verdict is RecycledVerdict.INDETERMINATE
    assert ratio == pytest.approx(1.2)


def test_detect_band_edges_belong_to_outer_verdicts():
    base = FreshBaseline({0: 1.0})
    assert detect_recycled(np.full(100, 1.1), 0, base)[0] is RecycledVerdict.FRESH
    assert detect_recycled(np.full(100, 1.3), 0, base)[0] is RecycledVerdict.USED


def test_detect_unknown_class_tag_rejected():
    with pytest.raises(ValidationError):
        detect_recycled(np.ones(100), 42, baseline_from_catalog(CATALOG))


def test_detect_threshold_order_validated():
    base = FreshBaseline({0: 1.0})
    with pytest.raises(ValidationError):
        detect_recycled(np.ones(100), 0, base,
                        used_threshold=1.1, fresh_threshold=1.3)


def test_detect_custom_thresholds_respected():
    base = FreshBaseline({0: 1.0})
    verdict, _ = detect_recycled(np.full(100, 1.2), 0, base,
                                 used_threshold=1.15, fresh_threshold=1.05)
    assert verdict is RecycledVerdict.USED


def test_verdict_monotone_in_elevation():
    base = FreshBaseline({0: 1.0})
    rank = {RecycledVerdict.FRESH: 0, RecycledVerdict.INDETERMINATE: 1,
            RecycledVerdict.USED: 2}
    last = -1
    for r in [0.5, 0.9, 1.0, 1.09, 1.1, 1.15, 1.2, 1.29, 1.3, 1.6, 4.0]:
        verdict, ratio = detect_recycled(np.full(100, r), 0, base)
        assert ratio == pytest.approx(r)
        assert rank[verdict] >= last
        last = rank[verdict]


# ------------------------------------------------------------- localization

def test_locate_uniform_map_empty():
    assert locate_used_regions(SpatialLatencyMap(np.full(256, 3.14))) == []


def test_locate_single_block_region():
    lat = np.ones(128)
    lat[100:105] = 2.0
    regions = locate_used_regions(SpatialLatencyMap(lat))
    assert regions == [UsedRegion(100, 104, 2.0)]


def test_locate_merges_across_single_gap():
    lat = np.ones(64)
    lat[10] = 2.0
    lat[12] = 3.0
    (region,) = locate_used_regions(SpatialLatencyMap(lat))
    assert (region.start_addr, region.end_addr) == (10, 12)
    assert region.peak_ratio == pytest.approx(3.0)


def test_locate_gap_of_two_splits_regions():
    lat = np.ones(64)
    lat[10] = 2.0
    lat[13] = 2.0
    regions = locate_used_regions(SpatialLatencyMap(lat))
    assert [(r.start_addr, r.end_addr) for r in regions] == [(10, 10), (13, 13)]


def test_locate_validations():
    with pytest.raises(ValidationError):
        locate_used_regions(SpatialLatencyMap(np.array([])))
    with pytest.raises(ValidationError):
        locate_used_regions(SpatialLatencyMap(np.ones(4)), flag_ratio=1.0)
    with pytest.raises(ValidationError):
        locate_used_regions(SpatialLatencyMap(np.array([1.0, -2.0])))


def _random_spot_map(seed, n=400):
    rng = np.random.default_rng(seed)
    lat = rng.uniform(0.9, 1.1, size=n)
    spots = rng.choice(n, size=8, replace=False)
    lat[spots] *= rng.uniform(1.7, 3.0, size=8)
    return lat, set(int(s) for s in spots)


def test_locate_regions_disjoint_and_endpoints_flagged():
    for seed in range(25):
        lat, _ = _random_spot_map(seed)
        regions = locate_used_regions(SpatialLatencyMap(lat))
        cut = 1.5 * np.median(lat)
        prev_end = -2
        covered = set()
        for r in regions:
            assert r.start_addr > prev_end + 1
            assert lat[r.start_addr] >= cut and lat[r.end_addr] >= cut
            assert r.peak_ratio >= 1.5
            covered.update(range(r.start_addr, r.end_addr + 1))
            prev_end = r.end_addr
        assert set(np.nonzero(lat >= cut)[0]) <= covered


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
       seed=st.integers(0, 50))
def test_locate_scaling_invariance(scale, seed):
    lat, _ = _random_spot_map(seed, n=200)
    before = locate_used_regions(SpatialLatencyMap(lat))
    after = locate_used_regions(SpatialLatencyMap(lat * scale))
    assert [(r.start_addr, r.end_addr) for r in before] == \
           [(r.start_addr, r.end_addr) for r in after]
    for a, b in zip(before, after):
        assert b.peak_ratio == pytest.approx(a.peak_ratio, rel=1e-9)


SPOT_CYCLES = (1000, 5000, 10_000, 20_000, 30_000, 50_000)


def seeded_spot_chip(tag, seed):
    """A chip with 6 pre-cycled spots; returns (chip, {addr: cycles})."""
    spec = SPEC[tag]
    rng = np.random.default_rng(seed)
    addrs = rng.choice(spec.num_locations, size=len(SPOT_CYCLES), replace=False)
    chip = new_chip(spec, 90_000 + seed)
    plan = {int(a): c for a, c in zip(addrs, SPOT_CYCLES)}
    for addr, cycles in plan.items():
        cycle_location(chip, addr, cycles)
    return chip, plan


def true_elevation(tag, cycles):
    curve = mean_latency_curve(SPEC[tag], [0, cycles])
    return curve[1] / curve[0]


def test_locate_seeded_spots_recall_and_precision():
    for seed in range(10):
        chip, plan = seeded_spot_chip(2, seed)
        regions = locate_used_regions(full_chip_scan(chip))
        qualifying = {a for a, c in plan.items() if true_elevation(2, c) >= 1.5}
        found = set()
        for r in regions:
            inside = [a for a in plan if r.start_addr <= a <= r.end_addr]
            assert inside, f"seed {seed}: region {r} matches no seeded spot"
            found.update(a for a in inside if a in qualifying)
        assert len(found) >= np.ceil(len(qualifying) * 5 / 6)


# ------------------------------------------------------ reports and map I/O

def test_report_text_and_csv():
    report = DetectionReport(7, "Fujitsu 4Mb ReRAM", RecycledVerdict.USED,
                             1.8321)
    assert report.to_text() == ("predicted class: 7 (Fujitsu 4Mb ReRAM)\n"
                                "recycled verdict: USED\n"
                                "elevation ratio: 1.8321\n")
    assert report.to_csv() == ("field,value\n"
                               "predicted_class_tag,7\n"
                               "predicted_class_label,Fujitsu 4Mb ReRAM\n"
                               "recycled_verdict,USED\n"
                               "elevation_ratio,1.832100\n")


def test_report_csv_quotes_a_label_with_a_comma():
    report = DetectionReport(0, 'Acme, Inc "A" 4Mb NOR_FLASH',
                             RecycledVerdict.FRESH, 1.0)
    assert list(csv.reader(io.StringIO(report.to_csv()))) == [
        ["field", "value"],
        ["predicted_class_tag", "0"],
        ["predicted_class_label", 'Acme, Inc "A" 4Mb NOR_FLASH'],
        ["recycled_verdict", "FRESH"],
        ["elevation_ratio", "1.000000"]]


def test_diagnose_probe_composes_both_checks():
    ds = build_dataset([SPEC[4], SPEC[5]], chips_per_class=2,
                       locations_per_chip=4, seed=3)
    model = train_knn(ds)
    report = diagnose_probe(fresh_probe(4, 123, addr=7), model,
                            baseline_from_catalog(CATALOG))
    assert report.predicted_class_tag == 4
    assert "Winbond" in report.predicted_class_label
    assert report.recycled_verdict is RecycledVerdict.FRESH


def test_map_csv_roundtrip(tmp_path):
    chip = new_chip(SPEC[6], 17)
    cycle_location(chip, 40, 20_000)
    original = full_chip_scan(chip)
    path = tmp_path / "map.csv"
    save_map(original, path)
    loaded = load_map(path)
    assert np.array_equal(loaded.latencies, original.latencies)
    assert locate_used_regions(loaded) == locate_used_regions(original)


def test_map_csv_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("latency\n1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_map(path)
    path.write_text("addr,latency_us\n0,1.0,9\n")
    with pytest.raises(ParseError, match="line 2"):
        load_map(path)
    path.write_text("addr,latency_us\n0,1.0\n0,2.0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_map(path)
    for rows in ("0,1.0\n2,2.0\n", "-1,1.0\n1,1.0\n",
                 # checked before the address range is built
                 "1000000000000000000,1.0\n"):
        path.write_text("addr,latency_us\n" + rows)
        with pytest.raises(ValidationError, match="no holes"):
            load_map(path)
    path.write_text("addr,latency_us\n")
    with pytest.raises(ParseError):
        load_map(path)


def test_map_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("addr,latency_us\n\n0,1.5\n \n1,2.5\n1,3.5\n")
    with pytest.raises(ParseError, match="^line 6: duplicate address 1"):
        load_map(path)
    path.write_text("addr,latency_us\n\n0,1.5\n \n1,2.5\n\n")
    assert load_map(path).latencies.tolist() == [1.5, 2.5]
