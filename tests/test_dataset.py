import hashlib
import json
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemts import (
    MtsDataset,
    MtsSample,
    SymbolizerConfig,
    SynthSpec,
    convert_dataset,
    generate_synthetic,
    load_csv,
    load_events,
    load_synth_spec,
    noiseless_trend,
    normalize_sample,
    pad_to_length,
    symbolize_sample,
    write_csv,
    write_events,
)
from stemts import dataset as dataset_module
from stemts.errors import (
    EmptyDatasetError,
    EmptySpecError,
    InvalidTargetError,
    MalformedDatasetError,
    ParseError,
    SchemaError,
)

from conftest import make_sample, run_length_spec


# --- naive references kept independent of the library code ---------------


def naive_normalize(row):
    lo, hi = min(row), max(row)
    if hi == lo:
        return [0.0] * len(row)
    return [(x - lo) / (hi - lo) for x in row]


def naive_symbols(row, delta):
    out = []
    for prev, cur in zip(row, row[1:]):
        diff = cur - prev
        if abs(diff) <= delta:
            out.append(0)
        elif diff > delta:
            out.append(1)
        else:
            out.append(-1)
    return out


# --- sample / dataset invariants ------------------------------------------


class TestSampleInvariants:
    def test_ragged_values_rejected(self):
        with pytest.raises(MalformedDatasetError):
            MtsSample("s", None, [[1.0, 2.0], [3.0]])

    def test_single_point_rejected(self):
        with pytest.raises(MalformedDatasetError):
            make_sample([[1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(MalformedDatasetError):
            make_sample([[0.0, np.nan]])
        with pytest.raises(MalformedDatasetError):
            make_sample([[0.0, np.inf]])

    def test_values_frozen(self):
        s = make_sample([[1.0, 2.0]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 9.0

    def test_dims_and_length(self):
        s = make_sample([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (s.dims, s.length) == (2, 3)


class TestDatasetInvariants:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            MtsDataset.from_samples(())

    def test_mixed_dims_rejected(self):
        a = make_sample([[1.0, 2.0]], "a")
        b = make_sample([[1.0, 2.0], [3.0, 4.0]], "b")
        with pytest.raises(SchemaError):
            MtsDataset.from_samples((a, b))

    def test_duplicate_ids_rejected(self):
        a = make_sample([[1.0, 2.0]], "a")
        with pytest.raises(MalformedDatasetError):
            MtsDataset.from_samples((a, make_sample([[3.0, 4.0]], "a")))

    def test_duplicate_ids_listed_sorted_once_each(self):
        ids = ["c", "b", "x", "c", "a", "b", "c"]
        samples = [make_sample([[float(i), 0.0]], sample_id) for i, sample_id in enumerate(ids)]
        with pytest.raises(MalformedDatasetError, match=r"^duplicate sample ids: \['b', 'c'\]$"):
            MtsDataset.from_samples(samples)

    def test_duplicate_ids_found_in_linear_time(self):
        # counting each id's occurrences one by one took 8 s for 20,000 samples
        samples = [make_sample([[0.0, 1.0]], f"s{i}") for i in range(50_000)]
        samples += [make_sample([[0.0, 1.0]], "s17"), make_sample([[0.0, 1.0]], "s49999")]
        start = time.perf_counter()
        with pytest.raises(MalformedDatasetError, match=r"\['s17', 's49999'\]$"):
            MtsDataset.from_samples(samples)
        assert time.perf_counter() - start < 5.0

    def test_label_set_sorted(self):
        ds = MtsDataset.from_samples(
            (
                make_sample([[1.0, 2.0]], "a", "walk"),
                make_sample([[1.0, 2.0]], "b", "sit"),
                make_sample([[1.0, 2.0]], "c", None),
            )
        )
        assert ds.label_set == ("sit", "walk")
        assert ds.t_max == 2


# --- normalization ---------------------------------------------------------


class TestNormalize:
    def test_affine_endpoints(self):
        s = normalize_sample(make_sample([[2.0, 4.0, 6.0]]))
        assert s.values.tolist() == [[0.0, 0.5, 1.0]]

    def test_constant_dimension_goes_to_zero(self):
        s = normalize_sample(make_sample([[5.0, 5.0, 5.0]]))
        assert s.values.tolist() == [[0.0, 0.0, 0.0]]

    def test_two_point_case(self):
        s = normalize_sample(make_sample([[1.0, 0.0]]))
        assert s.values.tolist() == [[1.0, 0.0]]

    def test_dimensions_independent(self):
        s = normalize_sample(make_sample([[0.0, 10.0], [7.0, 7.0]]))
        assert s.values.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_result_is_a_read_only_view(self):
        # the sample keeps the transposed view of the normalized array, no second copy
        s = normalize_sample(make_sample([[2.0, 4.0, 6.0], [1.0, 1.0, 3.0]]))
        assert s.values.base is not None and not s.values.flags.writeable
        assert s.values.tolist() == [[0.0, 0.5, 1.0], [0.0, 0.0, 1.0]]

    def test_range_overflowing_float64(self):
        # -1e308..1e308 spans 2e308, past the largest float64
        sample = make_sample([[-1e308, 0.0, 1e308, -1e308], [1.0, 2.0, 3.0, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = normalize_sample(sample)
            codes = symbolize_sample(s, SymbolizerConfig(0.05)).codes
        assert s.values[0].tolist() == [0.0, 0.5, 1.0, 0.0]
        # a dimension whose range fits is normalized exactly as on its own
        alone = normalize_sample(make_sample([[1.0, 2.0, 3.0, 5.0]]))
        assert s.values[1].tobytes() == alone.values[0].tobytes()
        assert codes == (8, 8, 6)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50).map(lambda x: round(x, 3)),
            min_size=2,
            max_size=30,
        )
    )
    def test_idempotent(self, row):
        once = normalize_sample(make_sample([row]))
        twice = normalize_sample(once)
        assert np.array_equal(once.values, twice.values)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50).map(lambda x: round(x, 3)),
            min_size=2,
            max_size=30,
        ),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-10, max_value=10),
    )
    def test_affine_invariance(self, row, a, b):
        span = max(row) - min(row)
        if 0 < span < 0.5:
            row = [x * (0.5 / span) for x in row]
        base = normalize_sample(make_sample([row]))
        moved = normalize_sample(make_sample([[a * x + b for x in row]]))
        assert np.allclose(base.values, moved.values, rtol=1e-12, atol=1e-12)


# --- padding ----------------------------------------------------------------


class TestPadding:
    def test_repeats_last_value(self):
        s = pad_to_length(make_sample([[0.1, 0.7]]), 4)
        assert s.values.tolist() == [[0.1, 0.7, 0.7, 0.7]]

    def test_identity_at_own_length(self):
        s = make_sample([[0.1, 0.7]])
        assert pad_to_length(s, 2) is s

    def test_per_dimension_repetition(self):
        s = pad_to_length(make_sample([[1.0, 2.0], [3.0, 4.0]]), 3)
        assert s.values.tolist() == [[1.0, 2.0, 2.0], [3.0, 4.0, 4.0]]

    def test_target_too_short(self):
        with pytest.raises(InvalidTargetError):
            pad_to_length(make_sample([[1.0, 2.0, 3.0]]), 2)

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=10),
        st.integers(min_value=0, max_value=8),
    )
    def test_prefix_preserved_and_tail_copied(self, row, extra):
        s = make_sample([row])
        padded = pad_to_length(s, len(row) + extra)
        assert np.array_equal(padded.values[:, : len(row)], s.values)
        assert np.all(padded.values[:, len(row) :] == row[-1])


# --- CSV interchange --------------------------------------------------------


DATA_CSV = """sample_id,label,t,dim_0
a,walk,0,1.0
a,walk,1,2.0
a,walk,2,3.0
b,sit,0,4.0
b,sit,1,5.0
b,sit,2,6.0
"""


class TestCsv:
    def test_two_sample_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(DATA_CSV)
        ds = load_csv(path)
        assert len(ds) == 2
        assert ds.dims == 1
        assert ds.t_max == 3
        assert ds[ds.ids.index("a")].values.tolist() == [[1.0, 2.0, 3.0]]
        assert ds[ds.ids.index("b")].label == "sit"

    def test_rows_sorted_by_t(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "sample_id,label,t,dim_0\na,,2,3.0\na,,0,1.0\na,,1,2.0\n"
        )
        ds = load_csv(path)
        assert ds[ds.ids.index("a")].values.tolist() == [[1.0, 2.0, 3.0]]
        assert ds[ds.ids.index("a")].label is None

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(path)

    def test_gap_in_t(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\na,,0,1.0\na,,2,2.0\n")
        with pytest.raises(MalformedDatasetError, match="'a'"):
            load_csv(path)

    def test_first_gapped_sample_in_file_order_is_named(self, tmp_path):
        # "c" appears before "b"; the bad value of "a" is checked only after every gap
        path = tmp_path / "d.csv"
        path.write_text(
            "sample_id,label,t,dim_0\na,,0,nan\na,,1,1.0\nc,,0,1.0\nb,,1,1.0\nb,,2,2.0\nc,,2,1.0\n"
        )
        with pytest.raises(MalformedDatasetError, match=r"sample 'c': t values .* got \[0, 2\]$"):
            load_csv(path)

    def test_duplicate_t(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\na,,0,1.0\na,,0,2.0\na,,1,2.0\n")
        with pytest.raises(MalformedDatasetError, match="'a'"):
            load_csv(path)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\na,,0,1.0\na,,1,oops\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0,dim_1\na,,0,1.0,2.0\na,,1,3.0\n")
        with pytest.raises(SchemaError, match="row 3"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,t,dim_0\na,,0,1.0\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_misnamed_dimension_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_1,dim_0\na,,0,1.0,2.0\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_conflicting_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\na,x,0,1.0\na,y,1,2.0\n")
        with pytest.raises(MalformedDatasetError):
            load_csv(path)

    def test_nan_cell_rejected(self, tmp_path):
        # "nan" parses as a float, so the sample invariant catches it instead
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\na,,0,1.0\na,,1,nan\n")
        with pytest.raises(MalformedDatasetError, match="'a'"):
            load_csv(path)

    def test_round_trip_fixed_point(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = tuple(
            make_sample(rng.normal(size=(2, 5)), f"s{i}", "c" if i % 2 else None)
            for i in range(4)
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(MtsDataset.from_samples(samples), first)
        write_csv(load_csv(first), second)
        assert first.read_bytes() == second.read_bytes()
        reloaded = load_csv(second)
        for s, r in zip(samples, reloaded.samples):
            assert s.id == r.id and s.label == r.label
            assert np.array_equal(s.values, r.values)


# --- the columnar dataset against its samples -------------------------------


CELLS = st.sampled_from([0.0, 1.0, 2.5, -3.0, 1e-9]) | st.floats(-1e6, 1e6)


@st.composite
def sample_blocks(draw, min_length=2, bad_cells=()):
    """(ids, labels, one (T, D) float block per sample): ragged lengths, labels
    of interleaved classes, ids that need CSV quoting; ``bad_cells`` may
    replace some values."""
    dims = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    ids = [draw(st.sampled_from(["s", "q,", 'q"', "#"])) + str(i) for i in range(n)]
    labels = draw(st.lists(st.sampled_from([None, "a", "b", "c"]), min_size=n, max_size=n))
    cells = CELLS | st.sampled_from(bad_cells) if bad_cells else CELLS
    blocks = []
    for _ in range(n):
        length = draw(st.integers(min_length, 7))
        rows = draw(st.lists(cells, min_size=length * dims, max_size=length * dims))
        blocks.append(np.array(rows, dtype=np.float64).reshape(length, dims))
    order = draw(st.permutations(range(n)))
    return [ids[i] for i in order], [labels[i] for i in order], [blocks[i] for i in order]


def todays_error(ids, labels, blocks):
    """The message the per-sample constructors give: each sample's own checks
    in dataset order, then the duplicate ids; None for a valid dataset."""
    for sid, label, rows in zip(ids, labels, blocks):
        try:
            MtsSample(sid, label, rows.T)
        except MalformedDatasetError as exc:
            return str(exc)
    dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
    return f"duplicate sample ids: {dupes}" if dupes else None


class TestColumnarParity:
    @given(sample_blocks())
    def test_views_equal_the_joined_samples(self, columns):
        samples = [MtsSample(sid, label, rows.T) for sid, label, rows in zip(*columns)]
        ds = MtsDataset.from_samples(samples)
        assert (ds.ids, ds.labels) == tuple(map(tuple, columns[:2]))
        assert not ds.values.flags.writeable
        listed, iterated = ds.samples, list(ds)
        for i, s in enumerate(samples):
            by_id = ds[ds.ids.index(s.id)]
            for view in (ds[i], ds[i - len(ds)], listed[i], iterated[i], by_id):
                assert (view.id, view.label, view.values.shape) == (s.id, s.label, s.values.shape)
                assert view.values.tobytes() == s.values.tobytes()
                assert np.shares_memory(view.values, ds.values)  # a view, not a copy
                assert not view.values.flags.writeable
        with pytest.raises(ValueError):
            ds[0].values[0, 0] = 7.0

    def test_writeable_values_are_copied(self):
        values = np.array([[1.0], [2.0]])
        ds = MtsDataset(values, np.array([0, 2]), ("a",), (None,))
        values[0, 0] = 9.0
        assert ds[0].values.tolist() == [[1.0, 2.0]]
        with pytest.raises(IndexError):
            ds[1]

    @settings(deadline=None)
    @given(columns=sample_blocks())
    def test_csv_round_trip(self, tmp_path_factory, columns):
        ds = MtsDataset.from_samples(
            MtsSample(sid, label, rows.T) for sid, label, rows in zip(*columns)
        )
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert (back.ids, back.labels) == (ds.ids, ds.labels)
        assert back.offsets.tolist() == ds.offsets.tolist()
        assert back.values.tobytes() == ds.values.tobytes()

    @settings(max_examples=300)
    @given(sample_blocks(min_length=0, bad_cells=(np.nan, np.inf, -np.inf)), st.data())
    def test_invalid_columns_raise_todays_message(self, columns, data):
        ids, labels, blocks = columns
        if data.draw(st.booleans()):  # a repeated id
            ids[data.draw(st.integers(0, len(ids) - 1))] = ids[0]
        values = np.concatenate(blocks)
        offsets = np.cumsum([0] + [len(rows) for rows in blocks])
        expected = todays_error(ids, labels, blocks)
        if expected is None:
            assert len(MtsDataset(values, offsets, tuple(ids), tuple(labels))) == len(ids)
        else:
            with pytest.raises(MalformedDatasetError) as exc:
                MtsDataset(values, offsets, tuple(ids), tuple(labels))
            assert str(exc.value) == expected


# --- synthetic generation ---------------------------------------------------


def two_class_spec(**overrides):
    kwargs = dict(
        classes=(
            ("up", ((("up", 1),),)),
            ("down", ((("down", 1),),)),
        ),
        samples_per_class=3,
        length=6,
        noise_amplitude=0.1,
        seed=7,
    )
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


class TestSynthetic:
    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(generate_synthetic(two_class_spec()), a)
        write_csv(generate_synthetic(two_class_spec()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(generate_synthetic(two_class_spec()), a)
        write_csv(generate_synthetic(two_class_spec(seed=8)), b)
        assert a.read_bytes() != b.read_bytes()

    def test_noiseless_up_motif_strictly_increasing(self):
        ds = generate_synthetic(
            two_class_spec(noise_amplitude=0.0, length=5, samples_per_class=2)
        )
        up = ds[ds.ids.index("up_000")].values[0]
        assert np.all(np.diff(up) > 0)

    def test_labels_and_counts(self):
        ds = generate_synthetic(two_class_spec(samples_per_class=4))
        assert len(ds) == 8
        assert ds.label_set == ("down", "up")

    @pytest.mark.parametrize("workload", ["eval-cli", "many-short"])
    def test_benchmark_inputs_match_their_recorded_digest(self, workload):
        # perfbench's generator spec and input digest, restated: a reordered
        # noise draw fails here as well as in the benchmark
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        spec = json.loads((bench / "workloads.json").read_text(encoding="utf-8"))
        generator, record = spec["generator"], spec["workloads"][workload]
        classes = tuple(
            (f"run{r}", ((("up", r), ("down", r)),) * generator["dims"])
            for r in generator["run_lengths"]
        )
        dataset = generate_synthetic(
            SynthSpec(
                classes=classes,
                samples_per_class=record["samples"] // len(classes),
                length=record["length"],
                noise_amplitude=generator["noise_amplitude"],
                seed=0,
                step_size=generator["step_size"],
                separable=generator["separable"],
            )
        )
        digest = hashlib.sha256()
        for s in dataset:
            digest.update(f"{s.id}\0{s.label}\0{s.values.shape}\0".encode())
            digest.update(np.ascontiguousarray(s.values).tobytes())
        recorded = json.loads((bench / "fingerprints.json").read_text(encoding="utf-8"))
        assert digest.hexdigest() == recorded[workload]["0"]["inputs"]

    def test_empty_spec_errors(self):
        with pytest.raises(EmptySpecError):
            two_class_spec(classes=())
        with pytest.raises(EmptySpecError):
            two_class_spec(samples_per_class=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("samples_per_class", 2.5, "samples_per_class must be an integer, got 2.5"),
            ("samples_per_class", 0.5, "samples_per_class must be an integer, got 0.5"),
            ("length", 10.7, "length must be an integer, got 10.7"),
            ("length", 6.0, "length must be an integer, got 6.0"),
            ("seed", True, "seed must be an integer, got True"),
            ("seed", "7", "seed must be an integer, got '7'"),
            ("noise_amplitude", False, "noise_amplitude must be a real number, got False"),
            ("noise_amplitude", "0.1", "noise_amplitude must be a real number, got '0.1'"),
            ("step_size", None, "step_size must be a real number, got None"),
            ("separable", "false", "separable must be true or false, got 'false'"),
            ("separable", 0, "separable must be true or false, got 0"),
        ],
    )
    def test_mistyped_fields_are_schema_errors(self, field, value, message):
        # each of these used to be truncated, converted or, for 2.5, fail inside numpy
        with pytest.raises(SchemaError) as info:
            two_class_spec(**{field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("seg_len", [2.7, 1.0, True, "2", None])
    def test_mistyped_segment_length_is_a_schema_error(self, seg_len):
        with pytest.raises(SchemaError, match=f"segment length must be an integer, got {seg_len!r}"):
            two_class_spec(classes=(("up", ((("up", seg_len),),)), ("down", ((("down", 1),),))))

    def test_range_checks_follow_the_type_check(self):
        with pytest.raises(EmptySpecError, match="one sample per class"):
            two_class_spec(samples_per_class=0)
        with pytest.raises(SchemaError, match="length must be >= 2, got 1"):
            two_class_spec(length=1)
        with pytest.raises(SchemaError, match="segment length must be >= 1, got 0"):
            two_class_spec(classes=(("up", ((("up", 0),),)), ("down", ((("down", 1),),))))
        # an int past float64 reads as inf, which the range check rejects
        with pytest.raises(SchemaError, match="finite range 2 x noise_amplitude, got inf"):
            two_class_spec(noise_amplitude=10**400)
        with pytest.raises(SchemaError, match="step_size must be > 0 with a finite trend, got -inf"):
            two_class_spec(step_size=-(10**400))

    def test_numpy_and_integer_values_are_stored_as_python_types(self):
        spec = two_class_spec(
            samples_per_class=np.int64(3),
            length=np.uint8(6),
            seed=np.int32(7),
            noise_amplitude=np.float32(0.25),
            step_size=2,
            separable=np.bool_(False),
            classes=(("up", ((("up", np.int16(1)),),)), ("down", ((("down", 1),),))),
        )
        stored = [spec.samples_per_class, spec.length, spec.seed, spec.noise_amplitude]
        stored += [spec.step_size, spec.separable, spec.classes[0][1][0][0][1]]
        assert [type(v) for v in stored] == [int, int, int, float, float, bool, int]
        plain = two_class_spec(noise_amplitude=0.25, step_size=2.0)
        assert spec == plain
        assert np.array_equal(generate_synthetic(spec).values, generate_synthetic(plain).values)

    def test_duplicate_motifs_rejected(self):
        with pytest.raises(SchemaError):
            two_class_spec(
                classes=(("a", ((("up", 1),),)), ("b", ((("up", 1),),)))
            )

    def test_separable_mode_rejects_loud_noise(self):
        with pytest.raises(SchemaError):
            two_class_spec(separable=True, noise_amplitude=0.6, step_size=1.0)

    def test_separable_mode_rejects_identical_tilings(self):
        # one up-segment and two chained up-segments tile to the same steps
        with pytest.raises(SchemaError, match="identical direction"):
            two_class_spec(
                classes=(
                    ("a", ((("up", 1),),)),
                    ("b", ((("up", 1), ("up", 1)),)),
                ),
                noise_amplitude=0.0,
                separable=True,
            )

    def test_separable_motifs_symbolize_distinct(self):
        # four 3-d classes with different run lengths; check on the noiseless
        # trends with the naive normalizer + symbolizer only
        def motif(run):
            return ((("up", run), ("down", run)),) * 3

        spec = SynthSpec(
            classes=(
                ("run2", motif(2)),
                ("run3", motif(3)),
                ("run4", motif(4)),
                ("run6", motif(6)),
            ),
            samples_per_class=1,
            length=30,
            noise_amplitude=0.0,
            seed=1,
            separable=True,
        )
        symbolized = []
        for _, m in spec.classes:
            trend = noiseless_trend(m, spec.length)
            dims = [naive_symbols(naive_normalize(list(row)), 0.0) for row in trend]
            symbolized.append(tuple(map(tuple, dims)))
        assert len(set(symbolized)) == len(symbolized)


SPEC_YAML = """\
classes:
  - label: up
    motif:
      - [[up, 1]]
  - label: down
    motif:
      - [[down, 1]]
samples_per_class: 2
length: 5
noise_amplitude: 0.0
seed: 11
"""


class TestSpecFile:
    def test_load_yaml(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(SPEC_YAML)
        spec = load_synth_spec(path)
        assert spec.samples_per_class == 2
        assert spec.length == 5
        assert spec.seed == 11
        assert spec.classes[0] == ("up", ((("up", 1),),))
        ds = generate_synthetic(spec)
        assert len(ds) == 4

    def test_missing_key(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("classes: []\n")
        with pytest.raises(SchemaError, match="missing keys"):
            load_synth_spec(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(SPEC_YAML + "wat: 1\n")
        with pytest.raises(SchemaError, match="unknown keys"):
            load_synth_spec(path)

    def test_unknown_keys_of_mixed_types(self, tmp_path):
        # sorting an int key against a text key raised TypeError
        path = tmp_path / "spec.yaml"
        path.write_text(SPEC_YAML + "wat: 1\n1: 2\n")
        with pytest.raises(SchemaError, match=r"unknown keys \[1, 'wat'\]"):
            load_synth_spec(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("samples_per_class: 2.9", "samples_per_class must be an integer, got 2.9"),
            ("length: 10.7", "length must be an integer, got 10.7"),
            ("seed: true", "seed must be an integer, got True"),
            ('separable: "false"', "separable must be true or false, got 'false'"),
            ("step_size: yes", "step_size must be a real number, got True"),
        ],
    )
    def test_values_pass_through_unconverted(self, tmp_path, line, message):
        key = line.split(":")[0]
        lines = [kept for kept in SPEC_YAML.splitlines() if not kept.startswith(f"{key}:")]
        path = tmp_path / "spec.yaml"
        path.write_text("\n".join([*lines, line]) + "\n")
        with pytest.raises(SchemaError) as info:
            load_synth_spec(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, spelt",
        [
            ("1e-3", "1.0e-3"),
            ("2E5", "2.0e+5"),
            ("+.5e2", "+0.5e+2"),
            ("1.5e3", "1.5e+3"),
            ("1e-300", "1.0e-300"),
        ],
    )
    def test_float_text_names_its_yaml_spelling(self, tmp_path, text, spelt):
        path = tmp_path / "spec.yaml"
        path.write_text(SPEC_YAML + f"step_size: {text}\n")
        with pytest.raises(SchemaError) as info:
            load_synth_spec(path)
        assert str(info.value) == (
            f"step_size must be a real number, got {text!r}, which YAML reads as text: "
            f"write it as {spelt}"
        )
        path.write_text(SPEC_YAML + f"step_size: {spelt}\n")
        assert load_synth_spec(path).step_size == float(text)

    @pytest.mark.parametrize("text", ['"1.0"', "'0.5'", "inf", "nan", "1_0e3", "e3", "."])
    def test_other_text_gets_no_spelling(self, tmp_path, text):
        # quoted text already spelt as YAML reads a float, or text that is no number
        path = tmp_path / "spec.yaml"
        path.write_text(SPEC_YAML + f"step_size: {text}\n")
        with pytest.raises(SchemaError) as info:
            load_synth_spec(path)
        value = text.strip("\"'")  # YAML drops the quotes
        assert str(info.value) == f"step_size must be a real number, got {value!r}"

    def test_whole_real_and_bool_values_load_as_before(self, tmp_path):
        path = tmp_path / "spec.yaml"
        text = SPEC_YAML.replace("noise_amplitude: 0.0", "noise_amplitude: 0")
        path.write_text(text + "step_size: 2\nseparable: false\n")
        spec = load_synth_spec(path)
        assert (spec.noise_amplitude, spec.step_size, spec.separable) == (0.0, 2.0, False)
        assert type(spec.noise_amplitude) is type(spec.step_size) is float
        path.write_text(SPEC_YAML.replace("[up, 1]", "[up, 0x2]") + "separable: true\n")
        assert load_synth_spec(path).classes[0] == ("up", ((("up", 2),),))

    def test_bad_direction(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(SPEC_YAML.replace("[up, 1]", "[sideways, 1]"))
        with pytest.raises(SchemaError, match="sideways"):
            load_synth_spec(path)


# --- numpy fast path against the row-by-row parser ------------------------

# cells chosen to hit the places where numpy's reader and Python's differ:
# '#' (numpy's default comment char), quotes, delimiters and line breaks
# inside fields, and numbers that float()/int() accept but numpy does not
TEXT_CELLS = ["a", "b", "#c", "#", "x,y", 'q"r', '"', "l\nm", "cr\r\nlf", " s ", "é", ""]
T_CELLS = ["0", "1", "2", "3", " 1", "+2", "1_0", "٣", "1.0", "x", "99999999999999999999"]
VALUE_CELLS = ["0.5", "-1.25", "3", "1e3", "1_0", "١", "nan", "inf", " 2.5 ", "oops", ""]


def _quote(cell):
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def long_form_files(draw):
    """Raw CSV text of a valid dataset, in shuffled row order, then at most one defect."""
    dims = draw(st.integers(1, 2))
    ids = draw(st.lists(st.sampled_from(TEXT_CELLS), min_size=1, max_size=3, unique=True))
    rows = []
    for sid in ids:
        label = draw(st.sampled_from(["", "walk", '"q"', "#w"]))
        for t in range(draw(st.integers(2, 4))):
            values = [repr(draw(st.floats(-9, 9))) for _ in range(dims)]
            rows.append([sid, label, str(t), *values])
    rows = draw(st.permutations(rows))
    pick = draw(st.integers(0, len(rows) - 1))
    defect = draw(st.sampled_from(["none", "none", "t", "value", "width", "label", "drop", "copy"]))
    if defect == "t":
        rows[pick][2] = draw(st.sampled_from(T_CELLS))
    elif defect == "value":
        rows[pick][3] = draw(st.sampled_from(VALUE_CELLS))
    elif defect == "width":
        rows[pick] = rows[pick][:-1] if draw(st.booleans()) else rows[pick] + ["7"]
    elif defect == "label":
        rows[pick][1] = "other"
    elif defect == "drop":
        del rows[pick]
    elif defect == "copy":
        rows.insert(pick, list(rows[pick]))
    # quoted cells follow csv.writer; bare ones may hold a stray quote or delimiter
    bare = draw(st.sampled_from([False, False, False, True]))
    lines = [",".join(_expected_columns(dims))] + [
        ",".join(c if bare and draw(st.booleans()) else _quote(c) for c in row) for row in rows
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "", " "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _expected_columns(dims):
    return ["sample_id", "label", "t"] + [f"dim_{d}" for d in range(dims)]


def _outcome(path):
    try:
        ds = load_csv(path)
    except Exception as exc:  # the comparison is over any outcome, errors included
        return type(exc), str(exc)
    return [(s.id, s.label, s.values.shape, s.values.tobytes()) for s in ds.samples]


def _row_parser_only():
    return mock.patch.object(dataset_module, "_numpy_columns", lambda *args: None)


def _fast_path_only():
    return mock.patch.object(
        dataset_module, "_row_columns", side_effect=AssertionError("row parser used")
    )


def _chunks_of(chars):
    """The body is read in chunks of ``8 * _BLOCK_CELLS`` characters, then to a line end."""
    assert chars % 8 == 0
    return mock.patch.object(dataset_module, "_BLOCK_CELLS", chars // 8)


@st.composite
def shuffled_and_sorted_twins(draw):
    """CSV text of a dataset with rows in shuffled order, at most one label conflict or
    gapped ``t``, and its twin: the same rows sorted by sample (in order of first
    appearance), then by ``t``, as ``write_csv`` writes them."""
    rows = []
    for sid in draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, unique=True)):
        label = draw(st.sampled_from(["", "walk", "sit"]))
        for t in range(draw(st.integers(2, 4))):
            rows.append([sid, label, t, repr(draw(st.floats(-9, 9)))])
    defect = draw(st.sampled_from(["none", "label", "drop", "copy"]))
    pick = draw(st.integers(0, len(rows) - 1))
    if defect == "label":
        rows[pick][1] = "other"
    elif defect == "drop":
        del rows[pick]
    elif defect == "copy":
        rows.insert(pick, list(rows[pick]))
    rows = draw(st.permutations(rows))
    first = {}
    for row in rows:
        first.setdefault(row[0], len(first))
    twin = sorted(rows, key=lambda row: (first[row[0]], row[2]))  # stable: equal t keep order
    header = "sample_id,label,t,dim_0\n"
    return [header + "".join(f"{s},{l},{t},{v}\n" for s, l, t, v in r) for r in (rows, twin)]


class TestRowOrder:
    @settings(max_examples=300, deadline=None)
    @given(twins=shuffled_and_sorted_twins())
    def test_shuffled_rows_load_as_their_sorted_twin(self, tmp_path_factory, twins):
        # the twin is in order, so it loads without the sort; errors name the same sample
        path = tmp_path_factory.mktemp("csv") / "d.csv"  # one path: messages name it
        path.write_text(twins[1])
        with mock.patch.object(np, "lexsort", side_effect=AssertionError("sorted")):
            twin = _outcome(path)
        path.write_text(twins[0])
        assert _outcome(path) == twin
        with _row_parser_only():
            assert _outcome(path) == twin

    def test_written_files_load_without_the_sort(self, tmp_path):
        data = generate_synthetic(run_length_spec(0.4, samples_per_class=3, length=6))
        path = tmp_path / "d.csv"
        write_csv(data, path)
        with mock.patch.object(np, "lexsort", side_effect=AssertionError("sorted")):
            loaded = load_csv(path)
        assert loaded.ids == data.ids and np.array_equal(loaded.values, data.values)


class TestFastPathEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(text=long_form_files())
    def test_fast_path_equals_row_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = _outcome(path)
        with _row_parser_only():
            slow = _outcome(path)
        assert fast == slow

    def test_written_files_take_the_fast_path(self, tmp_path):
        # quoted ids, '#' ids and an embedded line break
        samples = (
            make_sample([[1.0, 2.0, 0.5]], "#a,b", "x"),
            make_sample([[3.0, 4.0]], 'q"\nr', None),
            make_sample([[5.0, 5.0]], "#", "x"),
        )
        path = tmp_path / "d.csv"
        write_csv(MtsDataset.from_samples(samples), path)
        with _fast_path_only():
            loaded = load_csv(path)
        assert [s.id for s in loaded] == ["#a,b", 'q"\nr', "#"]
        assert loaded.samples[0].values.tolist() == [[1.0, 2.0, 0.5]]

    def test_single_row_file_names_the_sample(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\na,,0,1.0\n")
        with pytest.raises(MalformedDatasetError, match="needs at least 2 time points"):
            load_csv(path)

    def test_long_id_allocates_no_fixed_width_strings(self, tmp_path):
        # a fixed-width str column would take 5,000 rows x 2,000 chars x 4 bytes
        rows = ["sample_id,label,t,dim_0"]
        rows += [f"s{i // 2},,{i % 2},{i}.5" for i in range(5_000)]
        rows.append(f"{'z' * 2_000},,0,1.0")
        rows.append(f"{'z' * 2_000},,1,2.0")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            loaded = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 2_501
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @settings(max_examples=300, deadline=None)
    @given(text=long_form_files(), chars=st.sampled_from([8, 16, 24, 32, 40]))
    def test_any_chunk_size_equals_row_parser(self, tmp_path_factory, text, chars):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings(), _chunks_of(chars):
            warnings.simplefilter("error")
            chunked = _outcome(path)
        with _row_parser_only():
            slow = _outcome(path)
        assert chunked == slow

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_line_ends_split_across_chunks(self, tmp_path, newline):
        # 8-character reads end on the "\r" of each 7-character row
        rows = ["sample_id,label,t,dim_0", "a,x,0,1", "b,,0,25", "a,x,1,3", "b,,1,47"]
        path = tmp_path / "d.csv"
        path.write_bytes(newline.join(rows).encode() + newline.encode())
        with _chunks_of(8), _fast_path_only():
            loaded = load_csv(path)
        assert (loaded.ids, loaded.labels) == (("a", "b"), ("x", None))
        assert loaded.values.ravel().tolist() == [1.0, 3.0, 25.0, 47.0]
        with _chunks_of(8):
            chunked = _outcome(path)
        with _row_parser_only():
            assert chunked == _outcome(path)

    def test_quoted_line_break_after_the_first_chunk(self, tmp_path):
        samples = [make_sample([[float(i), i + 0.5]], f"s{i}", "x") for i in range(6)]
        samples.append(make_sample([[1.0, 2.0, 3.0]], 'q"\nr', "l\nm"))
        samples.append(make_sample([[4.0, 5.0]], "z", "x"))
        path = tmp_path / "d.csv"
        write_csv(MtsDataset.from_samples(samples), path)
        with _chunks_of(16), _fast_path_only():
            chunked = _outcome(path)
        with _row_parser_only():
            assert chunked == _outcome(path)
        assert [row[:2] for row in chunked][-2:] == [('q"\nr', "l\nm"), ("z", "x")]

    def test_chunk_of_blank_lines_is_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\na,,0,1.0\n" + "\n" * 20 + "a,,1,2.0\n\n")
        with warnings.catch_warnings(), _chunks_of(8), _fast_path_only():
            warnings.simplefilter("error")
            loaded = load_csv(path)
        assert loaded.values.ravel().tolist() == [1.0, 2.0]

    def test_label_conflict_across_chunks(self, tmp_path):
        rows = ["a,x,0,1.0", "b,y,0,2.0", "b,y,1,3.0", "c,x,0,4.0", "a,x,1,5.0", "c,y,1,6.0"]
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\n" + "\n".join(rows) + "\n")
        with _chunks_of(8), _fast_path_only():
            with pytest.raises(MalformedDatasetError, match="sample 'c' carries conflicting"):
                load_csv(path)
        with _chunks_of(8):
            chunked = _outcome(path)
        with _row_parser_only():
            assert chunked == _outcome(path)

    def test_label_conflict_is_named_at_the_first_row_that_differs(self, tmp_path):
        # a's first row in the file is its t = 1 row, and b's second row is the first row
        # whose label differs from its sample's first row: both parsers name b
        rows = ["a,x,1,1.0", "b,x,0,2.0", "b,y,1,3.0", "a,y,0,4.0"]
        path = tmp_path / "d.csv"
        path.write_text("sample_id,label,t,dim_0\n" + "\n".join(rows) + "\n")
        for parser in (_fast_path_only, _row_parser_only):
            with parser(), pytest.raises(MalformedDatasetError, match="sample 'b' carries"):
                load_csv(path)

    def test_event_file_spanning_chunks_round_trips(self, tmp_path):
        batch = convert_dataset(
            generate_synthetic(run_length_spec(0.4, samples_per_class=3, length=12)),
            SymbolizerConfig(0.05),
        )
        path = tmp_path / "events.csv"
        write_events(batch, SymbolizerConfig(0.05), path)
        assert path.stat().st_size > 20 * 64
        with _chunks_of(64), _fast_path_only():
            loaded, config = load_events(path)
        assert (config.delta, loaded.dims) == (0.05, batch.dims)
        assert (loaded.ids, loaded.labels) == (batch.ids, batch.labels)
        assert np.array_equal(loaded.offsets, batch.offsets)
        assert np.array_equal(loaded.codes, batch.codes)

    def test_reader_memory_does_not_grow_with_strings_per_row(self, tmp_path):
        # 400 samples x 100 steps x 3 dims: 40,000 rows, 2.9 MB. The tracemalloc peak of
        # load_csv read 8.24 MiB with one np.loadtxt pass and object id and label columns
        # over the whole body, and 4.96 MiB with chunks whose ids and labels become codes.
        path = tmp_path / "d.csv"
        write_csv(generate_synthetic(run_length_spec(0.4, samples_per_class=100)), path)
        tracemalloc.start()
        try:
            loaded = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.values) == 40_000
        assert peak < 6.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"
