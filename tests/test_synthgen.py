"""Tests for the synthetic cohort generator and its file formats."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohortsense import synthgen
from cohortsense.core import ConfigError, ValidationError
from cohortsense.synthgen import (
    BASE_SPREAD,
    CATEGORICAL_FEATURE,
    FEATURES,
    CohortPlan,
    build_default_plan,
    build_default_profiles,
    generate_cohort,
    load_batches,
    load_plan,
    write_cohort,
)

from columns import batch_of


@pytest.fixture(scope="module")
def plan():
    return build_default_plan()


@pytest.fixture(scope="module")
def profiles():
    return build_default_profiles()


@pytest.fixture(scope="module")
def batches(plan, profiles):
    return generate_cohort(plan, profiles, seed=42)


# ---------------------------------------------------------------- profiles


def test_profile_cells_match_reported_intervals(profiles):
    cells = {(p.group_id, p.week_interval) for p in profiles}
    assert ("G1", (1, 4)) in cells
    assert ("G4", (5, 7)) in cells
    assert ("G4", (9, 10)) in cells
    # G4 has no weeks 1-4 cell
    assert not any(p.group_id == "G4" and p.covers(1) for p in profiles)
    assert len(profiles) == 14


def test_profile_score_ranges_verbatim(profiles):
    def cell(group, week):
        return next(p for p in profiles if p.group_id == group and p.covers(week))

    assert cell("G1", 1).score_range == (10, 18)
    assert cell("G3", 9).score_range == (18, 36)
    assert cell("G2", 5).score_range == (15, 32)
    assert cell("G4", 6).score_range == (14, 28)


def test_profile_ordinal_ordering_preserved(profiles):
    g1 = next(p for p in profiles if p.group_id == "G1" and p.covers(1))
    g3 = next(p for p in profiles if p.group_id == "G3" and p.covers(1))
    # high-activity group sits above the low-activity group
    assert g1.feature_means["physical_activity"] > g3.feature_means["physical_activity"]
    assert g3.feature_means["phone_usage_min"] > g1.feature_means["phone_usage_min"]


# ---------------------------------------------------------------- plan


def test_default_plan_week1_sizes(plan):
    week1 = plan.weekly_group_membership[1]
    assert len(week1["G1"]) == 84
    assert len(week1["G2"]) == 70
    assert len(week1["G3"]) == 51
    assert "G4" not in week1


def test_default_plan_g4_emergence_pattern(plan):
    for week in (1, 2, 3, 4, 8):
        assert "G4" not in plan.weekly_group_membership[week]
    for week in (5, 6, 7, 9, 10):
        assert len(plan.weekly_group_membership[week]["G4"]) > 0


def test_default_plan_nonempty_group_counts(plan):
    counts = [len(plan.weekly_group_membership[w]) for w in range(1, 11)]
    assert counts == [3, 3, 3, 3, 4, 4, 4, 3, 4, 4]


def test_plan_rejects_overlapping_membership():
    with pytest.raises(ValidationError):
        CohortPlan(
            total_participants=2,
            lonely_count=0,
            weekly_group_membership={
                1: {"G1": frozenset({"P1"}), "G2": frozenset({"P1"})}
            },
        )


# ---------------------------------------------------------------- generation


def test_generate_deterministic(plan, profiles, batches):
    again = generate_cohort(plan, profiles, seed=42)
    assert again == batches


def test_generate_different_seeds_differ(plan, profiles, batches):
    other = generate_cohort(plan, profiles, seed=43)
    assert other != batches


def test_each_participant_week_has_28_records(batches):
    for batch in batches:
        per_pid = np.bincount(batch.participants, minlength=len(batch.participant_ids))
        assert set(per_pid.tolist()) == {28}


def test_label_prevalence_exact(batches, plan):
    labels = batches[0].labels
    assert len(labels) == 205
    lonely = sum(1 for score in labels.values() if score > 20)
    assert abs(lonely - 87) <= 1


def test_scores_within_final_group_ranges(batches, plan, profiles):
    final = plan.weekly_group_membership[10]
    for group, members in final.items():
        prof = next(p for p in profiles if p.group_id == group and p.covers(10))
        lo, hi = prof.score_range
        for pid in members:
            assert lo <= batches[0].labels[pid] <= hi


def test_missingness_and_outliers_present(batches):
    values = batches[0].records
    n_missing = np.isnan(values).sum()
    total = values.size
    assert 0.03 < n_missing / total < 0.07
    # injected outliers: some surviving values sit far above the honest scale
    big = (values > 3.0).sum()
    assert big > 0


def test_planted_separation_three_sigma(profiles):
    """For >= 4 features the between-group mean span exceeds 3x the spread."""
    for week in (1, 5, 9):
        live = [p for p in profiles if p.covers(week)]
        wide = 0
        for feat in FEATURES:
            means = [p.feature_means[feat] for p in live]
            spread = max(max(p.feature_spreads[feat] for p in live), BASE_SPREAD)
            if max(means) - min(means) >= 3 * spread:
                wide += 1
        assert wide >= 4, f"week {week}: only {wide} separated features"


@pytest.mark.parametrize("k", [1, len(FEATURES)])
def test_one_uniform_call_draws_what_three_calls_drew(k):
    # the generator draws a row's outlier, cell and token uniforms with one
    # random(k + 2) call where it made random(), random(k) and random()
    joint, apart = (np.random.Generator(np.random.PCG64(2019)) for _ in range(2))
    out = np.empty(k + 2)
    for _ in range(3):
        joint.standard_normal(k)
        apart.standard_normal(k)
        joint.random(out=out)
        assert out.tolist() == [apart.random(), *apart.random(k).tolist(), apart.random()]


def test_generate_errors_without_profile_coverage(profiles):
    plan = CohortPlan(
        total_participants=1,
        lonely_count=0,
        weekly_group_membership={1: {"G4": frozenset({"P001"})}},
    )
    with pytest.raises(ConfigError):
        generate_cohort(plan, profiles, seed=0)


# ---------------------------------------------------------------- file I/O


def test_write_and_load_round_trip(tmp_path, batches, plan):
    write_cohort(tmp_path, batches, plan)
    assert sorted(p.name for p in tmp_path.glob("week_*.csv")) == [
        f"week_{n}.csv" for n in range(1, 11)
    ] or len(list(tmp_path.glob("week_*.csv"))) == 10
    assert (tmp_path / "labels.csv").exists()
    assert (tmp_path / "plan.json").exists()

    loaded = load_batches(tmp_path)
    assert len(loaded) == 10
    for orig, back in zip(batches, loaded):
        assert back.week == orig.week
        assert back.labels == orig.labels
        assert len(back.records) == len(orig.records)
    # numeric round trip is exact (repr formatting)
    orig, back = batches[0], loaded[0]

    def key(batch, i):
        return batch.participant_ids[batch.participants[i]], batch.days[i], batch.segments[i]

    j = next(j for j in range(len(back.records)) if key(back, j) == key(orig, 0))
    assert np.array_equal(back.records[j], orig.records[0], equal_nan=True)

    plan_back = load_plan(tmp_path / "plan.json")
    assert plan_back.weekly_group_membership == plan.weekly_group_membership
    assert plan_back.lonely_count == plan.lonely_count


def test_write_matches_csv_writer_on_edge_cells(tmp_path, plan, monkeypatch):
    # blocks of 4 rows, so that 10 rows end in a short block
    monkeypatch.setattr(synthgen, "_BLOCK_ROWS", 4)
    names = sorted(FEATURES)
    edge = [math.nan, -0.0, 1e-05, 1e16, 5e-324, 0.1, 123456789.125]
    ids = ['p,"1', "P002", " P003"]
    tokens = ["a,b", None, 'say "hi"', "plain", "line\nbreak"]
    rows = []
    for i in range(10):
        values = {f: edge[(i + j) % len(edge)] for j, f in enumerate(names[:-1])}
        values[names[-1]] = None  # one all-missing feature column
        day = f"2019-04-0{1 + i % 3}"
        segment = ("night", "morning", "afternoon", "evening")[i % 4]
        rows.append((ids[i % 3], day, segment, values, {CATEGORICAL_FEATURE: tokens[i % 5]}))
    batch = batch_of(rows)
    write_cohort(tmp_path, [batch], plan)

    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["participant_id", "week", "day", "segment", *names, CATEGORICAL_FEATURE])
    for pid, day, segment, values, token in rows:
        cells = ["" if values[f] is None or values[f] != values[f] else repr(values[f]) for f in names]
        writer.writerow([pid, 1, day, segment, *cells, token[CATEGORICAL_FEATURE] or ""])
    assert (tmp_path / "week_1.csv").read_bytes() == expected.getvalue().encode("utf-8")

    back = load_batches(tmp_path)[0]
    assert back == batch
    assert back.participant_ids == tuple(sorted(ids)) and set(back.tokens[0]) == set(tokens) - {None}
    assert np.array_equal(np.signbit(back.records), np.signbit(batch.records))


def test_write_rejects_a_batch_with_other_features(tmp_path, plan):
    batch = batch_of([("P001", "2019-04-01", "night", {"x": 1.0}, {})])
    with pytest.raises(ValidationError, match="features"):
        write_cohort(tmp_path, [batch], plan)


def test_write_checks_every_batch_before_writing_any_file(tmp_path, batches, plan):
    other = batch_of([("P001", "2019-04-08", "night", {"x": 1.0}, {})], week=2)
    with pytest.raises(ValidationError, match="week 2: features"):
        write_cohort(tmp_path, [batches[0], other], plan)
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_two_files_for_one_week(tmp_path, batches, plan):
    write_cohort(tmp_path, batches[:3], plan)
    (tmp_path / "week_02.csv").write_bytes((tmp_path / "week_2.csv").read_bytes())
    with pytest.raises(ValidationError, match=r"week_02\.csv and .*week_2\.csv"):
        load_batches(tmp_path)


def _edit_week(path, edits, week=1):
    """Apply {(line, column): text} to week_<week>.csv; a column of None cuts the row short."""
    with open(path / f"week_{week}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for (line, column), text in edits.items():
        row = rows[line - 1]
        if column is None:
            del row[3:]
        else:
            row[rows[0].index(column)] = text
    with open(path / f"week_{week}.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


FEATURE = sorted(FEATURES)[0]


@pytest.mark.parametrize(
    "bad, message",
    [
        ({(40, FEATURE): "1x"}, "line 40: could not convert string to float: '1x'"),
        ({(40, FEATURE): "nan"}, "line 40: feature value 'nan' is not a finite number"),
        ({(40, FEATURE): "-inf"}, "line 40: feature value '-inf' is not a finite number"),
        ({(40, "segment"): "noon"}, "line 40: unknown segment 'noon'"),
        ({(40, "day"): "20190401"}, "line 40: day '20190401' is not an ISO date"),
        ({(40, "week"): "3"}, "line 40: row has week 3, the file is week 1"),
        ({(40, None): ""}, "line 40: 3 fields"),
    ],
    ids=["text", "nan", "inf", "segment", "day", "week", "short"],
)
def test_load_names_the_first_bad_line(tmp_path, batches, plan, bad, message):
    write_cohort(tmp_path, batches[:1], plan)
    # a later bad row, and blank or padded cells that are accepted
    later = {(55, "segment"): "dusk", (30, FEATURE): "", (31, FEATURE): " 2.5"}
    _edit_week(tmp_path, later | bad)
    with pytest.raises(ValidationError, match=r"week_1\.csv, " + message.replace("(", r"\(")):
        load_batches(tmp_path)


def test_a_bad_line_in_the_helpers_half_is_named(tmp_path, batches, plan):
    # of 4 weeks, the forked helper reads weeks 3 and 4
    write_cohort(tmp_path, batches[:4], plan)
    _edit_week(tmp_path, {(55, "segment"): "dusk", (40, "segment"): "noon"}, week=4)
    with pytest.raises(ValidationError, match=r"week_4\.csv, line 40: unknown segment 'noon'"):
        load_batches(tmp_path)


def test_of_bad_files_in_both_halves_the_earlier_week_is_named(tmp_path, batches, plan):
    write_cohort(tmp_path, batches[:4], plan)
    for week in (4, 2, 3):
        _edit_week(tmp_path, {(40, "segment"): "noon"}, week=week)
    with pytest.raises(ValidationError, match=r"week_2\.csv, line 40"):
        load_batches(tmp_path)


def test_a_one_week_data_dir_loads(tmp_path, batches, plan):
    write_cohort(tmp_path, batches[:1], plan)
    assert load_batches(tmp_path) == batches[:1]


def in_turn(here, there, what):
    return here(), there()


def test_the_halves_side_by_side_give_what_the_weeks_give_in_turn(
    tmp_path, plan, profiles, batches, monkeypatch
):
    write_cohort(tmp_path / "side_by_side", batches, plan)
    loaded = load_batches(tmp_path / "side_by_side")
    monkeypatch.setattr(synthgen, "side_by_side", in_turn)
    assert generate_cohort(plan, profiles, seed=42) == batches
    write_cohort(tmp_path / "in_turn", batches, plan)
    for path in (tmp_path / "in_turn").iterdir():
        assert path.read_bytes() == (tmp_path / "side_by_side" / path.name).read_bytes(), path.name
    assert len(list((tmp_path / "side_by_side").iterdir())) == 12
    assert load_batches(tmp_path / "in_turn") == loaded == batches


def test_load_reads_blank_cells_as_missing_and_numbers_as_float_does(tmp_path, batches, plan):
    write_cohort(tmp_path, batches[:1], plan)
    cells = {30: "", 31: " 2.5", 32: "1_0"}
    _edit_week(tmp_path, {(line, FEATURE): text for line, text in cells.items()})
    back = load_batches(tmp_path)[0]
    column = back.records[:, back.continuous_features.index(FEATURE)]
    # rows keep their file order; line 2 is row 0
    assert np.isnan(column[28]) and column[29] == 2.5 and column[30] == 10.0
    unedited = np.ones(len(column), dtype=bool)
    unedited[28:31] = False
    assert np.array_equal(column[unedited], batches[0].records[unedited, 0], equal_nan=True)


def _csv_only_read(path, columns, convert):
    """What ``synthgen._read_csv`` returns for a file, read with
    ``csv.reader`` alone: ``convert`` of all rows' cells, or on a bad row
    the ValidationError naming its line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValidationError(f"{path}, line 1: missing columns {', '.join(missing)}")
            at = [header.index(c) for c in columns]
            rows = [row for row in reader if row]
    except csv.Error as exc:
        raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from exc
    if min(map(len, rows), default=len(header)) >= len(header):
        cells = list(zip(*rows)) or [()] * len(header)
        try:
            return convert(*[cells[i] for i in at])
        except ValueError:
            pass
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row:
                try:
                    if len(row) < len(header):
                        raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                    convert(*[(row[i],) for i in at])
                except ValueError as exc:
                    raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from exc
    raise AssertionError("rejected as a whole, yet every row passes")


def _convert(names, scores):
    bad = [s for s in scores if "b" in s]
    if bad:
        raise ValueError(f"score {bad[0]!r}")
    return [list(names), list(scores)]


def _outcome(read, path):
    try:
        return read(path, ("name", "score"), _convert)
    except ValidationError as exc:
        return str(exc)


def _assert_read_as_csv_reader_reads(path, text, field_limit=None):
    path.write_bytes(text.encode("utf-8"))
    old_limit = csv.field_size_limit(field_limit) if field_limit else None
    try:
        outcome = _outcome(synthgen._read_csv, path)
        assert outcome == _outcome(_csv_only_read, path)
    finally:
        if old_limit:
            csv.field_size_limit(old_limit)
    return outcome


def _mostly(common, rare, one_in):
    return st.integers(1, one_in).flatmap(lambda i: rare if i == one_in else common)


_TEXT = 'ab19 ,"\r\n\0'
# cells of letters, digits and spaces; one in eight holds any of _TEXT
_CELL = _mostly(st.text("a19 ", max_size=7), st.text(_TEXT, min_size=1, max_size=3), 8)
_LINE = _mostly(st.lists(_CELL, min_size=1, max_size=4).map(",".join), st.text(_TEXT, max_size=8), 4)
_ENDING = _mostly(st.sampled_from(["\n", "\r\n"]), st.sampled_from(["\r", ""]), 6)


@st.composite
def _csv_texts(draw):
    """A header, mostly with the read columns, then lines that mostly hold
    one cell per header cell, and up to two stray characters among them."""
    header = draw(_mostly(st.sampled_from(["name,score", "score,x,name", '"name",score']), _LINE, 8))
    width = header.count(",") + 1
    line = _mostly(st.lists(_CELL, min_size=width, max_size=width).map(",".join), _LINE, 6)
    body = "".join(draw(line) + draw(_ENDING) for _ in range(draw(st.integers(0, 8))))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from(_TEXT)) + body[at:]
    return header + "\r\n" + body


@settings(max_examples=500, deadline=None)
@given(
    text=_csv_texts(),
    block_chars=st.sampled_from([1, 2, 5, 64]),
    field_limit=st.sampled_from([None, 5]),
)
def test_read_csv_reads_as_csv_reader_does(tmp_path_factory, text, block_chars, field_limit):
    path = tmp_path_factory.getbasetemp() / "read_csv_case.csv"
    with mock.patch.object(synthgen, "_BLOCK_CHARS", block_chars):
        _assert_read_as_csv_reader_reads(path, text, field_limit)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("", "line 1: missing columns name, score"),
        ("\r\nname,score\r\nx,1\r\n", "line 1: missing columns name, score"),
        ("name,score\r\n", [[], []]),
        ("name,score", [[], []]),
        ("name,score\n\r\nx,1\n\ny,2", [["x", "y"], ["1", "2"]]),
        ("name,score\r\nx\ry,1\r\n", "line 2: 1 fields, the header has 2"),
        ("name,score\r\nx,1\r\ny,b\r\n", "line 3: score 'b'"),
        # a line over the field limit (131,072) whose cells are within it
        ("score,name\r\n" + "9" * 70_000 + "," + "x" * 70_000 + "\r\n2,y\r\n",
         [["x" * 70_000, "y"], ["9" * 70_000, "2"]]),
        ("name,score\r\nx,1\r\n" + "x" * 200_000 + ",2\r\n", "line 3: field larger than field limit"),
    ],
    ids=["empty", "blank_first_line", "header_only", "header_only_unended", "blank_lines",
         "lone_carriage_return", "rejected_cell", "line_over_the_field_limit",
         "cell_over_the_field_limit"],
)
def test_read_csv_edge_files(tmp_path, text, outcome):
    read = _assert_read_as_csv_reader_reads(tmp_path / "edge.csv", text)
    if isinstance(outcome, str):
        assert read.startswith(f"{tmp_path / 'edge.csv'}, {outcome}")
    else:
        assert read == outcome


@pytest.mark.parametrize("rows", [3, 3000])
def test_read_csv_names_a_bad_byte_before_a_missing_column(tmp_path, rows):
    # 3 rows fit in the text reader's first decoded chunk, 3,000 do not
    path = tmp_path / "bad.csv"
    lines = [b"name,x"] + [b"p%04d,1" % i for i in range(rows)]
    lines[-1] = b"\xff" + lines[-1]
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with pytest.raises(ValidationError, match=f"line {rows + 1}: not UTF-8 text"):
        synthgen._read_csv(path, ("name", "score"), _convert)


def test_written_week_files_are_split_without_csv_reader(tmp_path, batches, plan):
    write_cohort(tmp_path, batches[:1], plan)
    with open(tmp_path / "week_1.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(tmp_path / "week_1.csv", newline="", encoding="utf-8") as fh:
        next(fh)
        with mock.patch.object(synthgen, "_BLOCK_CHARS", 1000):
            columns = synthgen._plain_columns(fh, len(rows[0]))
    assert columns == [list(column) for column in zip(*rows[1:])]
