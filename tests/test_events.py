import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stemts import (
    EventSequence,
    SymbolizerConfig,
    alphabet_size,
    convert_dataset,
    decode_event,
    encode_event,
    explain_event,
    explain_tuple,
    generate_synthetic,
    load_csv,
    load_events,
    normalize_sample,
    pad_to_length,
    symbolize_dimension,
    symbolize_sample,
    write_csv,
    write_events,
)
from stemts import dataset as dataset_module
from stemts import events as events_module
from stemts.dataset import MtsDataset, MtsSample, min_max_normalize
from stemts.events import EventBatch, event_codes
from stemts.features import FeatureVector
from stemts.errors import (
    ConfigError,
    EmptyInputError,
    IncompatibleVocabularyError,
    InvalidCodeError,
    ParseError,
    SchemaError,
    TooShortError,
)

from conftest import make_sample, run_length_spec


def naive_symbols(row, delta):
    """Straightforward per-step reference, kept free of numpy on purpose."""
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


class TestSymbolizeDimension:
    def test_three_way_split(self):
        assert symbolize_dimension([0.0, 0.5, 0.5, 0.2], 0.1) == [1, 0, -1]

    def test_constant_is_flat(self):
        assert symbolize_dimension([0.3] * 5, 0.0) == [0, 0, 0, 0]

    def test_monotone_with_large_steps(self):
        x = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        assert symbolize_dimension(x, 0.1) == [1] * 5

    def test_boundary_step_counts_as_flat(self):
        assert symbolize_dimension([0.0, 0.1], 0.1) == [0]
        assert symbolize_dimension([0.1, 0.0], 0.1) == [0]

    def test_too_short(self):
        with pytest.raises(TooShortError):
            symbolize_dimension([0.5], 0.1)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            symbolize_dimension([0.0, 1.5], 0.1)

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["start", "middle", "end"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, at, bad):
        row = [0.0, 0.5, 1.0]
        row[at] = bad
        with pytest.raises(ValueError, match="normalized to \\[0, 1\\]"):
            symbolize_dimension(row, 0.05)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            symbolize_dimension([0.0, 1.0], 1.0)
        # a numpy float is stored as a Python one, so the setting stays JSON-writable
        assert type(SymbolizerConfig(np.float32(0.05)).delta) is float
        assert SymbolizerConfig(np.float32(0.05)).delta == float(np.float32(0.05))
        assert str(SymbolizerConfig(np.float32(-0.0)).delta) == "0.0"

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40),
        st.floats(min_value=0.0, max_value=0.99),
    )
    def test_matches_naive_reference(self, row, delta):
        assert symbolize_dimension(row, delta) == naive_symbols(row, delta)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=20),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.49),
    )
    def test_flat_set_grows_with_delta(self, row, d1, extra):
        d2 = d1 + extra
        low = symbolize_dimension(row, d1)
        high = symbolize_dimension(row, d2)
        for a, b in zip(low, high):
            if a == 0:
                assert b == 0

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=20))
    def test_time_reversal_negates(self, row):
        forward = symbolize_dimension(row, 0.05)
        backward = symbolize_dimension(row[::-1], 0.05)
        assert backward == [-s for s in forward[::-1]]


class TestEventCodes:
    def test_extremes_two_dims(self):
        assert encode_event((-1, -1)) == 0
        assert encode_event((1, 1)) == 8

    def test_center_code(self):
        assert encode_event((0, 0)) == 4

    def test_alphabet_size(self):
        assert alphabet_size(3) == 27
        assert alphabet_size(1) == 3

    def test_widest_alphabet_fits_int64(self):
        # every dimension rising gives the largest code, 3**39 - 1
        rising = np.tile(np.linspace(0.0, 1.0, 3), (39, 1))
        codes = symbolize_sample(make_sample(rising), SymbolizerConfig()).codes
        assert codes == (alphabet_size(39) - 1,) * 2
        assert decode_event(codes[0], 39) == (1,) * 39

    @pytest.mark.parametrize("dims", [4, 5, 6, 9, 10, 11, 19, 20, 21, 39])
    def test_codes_reach_both_ends_of_the_narrow_type(self, dims):
        # 3**D - 1 fits uint8 up to D = 5, uint16 up to 10 and uint32 up to 20 (each signed
        # type one dimension fewer): these D sit on both sides of every width
        mixed = np.random.default_rng(dims).integers(-1, 2, (6, dims))
        symbols = np.vstack([np.ones(dims, int), -np.ones(dims, int), mixed, -mixed])
        walk = np.vstack([np.zeros(dims), symbols.cumsum(axis=0)])  # (T, D), integer steps
        expected = [encode_event(row) for row in symbols.tolist()]
        assert expected[:2] == [alphabet_size(dims) - 1, 0]
        assert event_codes(walk, 0.0).tolist() == expected
        # a (T, D, 2) block: the second sample is the first upside down
        mirrored = [encode_event(row) for row in (-symbols).tolist()]
        assert event_codes(np.stack([walk, -walk], axis=-1), 0.0).T.tolist() == [expected, mirrored]
        normalized = normalize_sample(make_sample(walk.T))
        codes = symbolize_sample(normalized, SymbolizerConfig(0.0)).codes
        assert codes == tuple(expected) and {type(c) for c in codes} == {int}
        ds = MtsDataset.from_samples((make_sample(walk.T, "up"), make_sample(-walk.T, "down")))
        batch = convert_dataset(ds, SymbolizerConfig(0.0))
        assert batch.codes.dtype == np.int64
        assert [list(q.codes) for q in batch] == [expected, mirrored]

    def test_forty_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            alphabet_size(40)
        rising = np.tile(np.linspace(0.0, 1.0, 3), (40, 1))
        with pytest.raises(ConfigError):
            symbolize_sample(make_sample(rising), SymbolizerConfig())

    def test_decode_examples(self):
        assert decode_event(0, 2) == (-1, -1)
        assert decode_event(13, 3) == (0, 0, 0)

    def test_round_trip_four_dims(self):
        for code in range(alphabet_size(4)):
            assert encode_event(decode_event(code, 4)) == code

    def test_decode_out_of_range(self):
        with pytest.raises(InvalidCodeError):
            decode_event(9, 2)
        with pytest.raises(InvalidCodeError):
            decode_event(-1, 2)

    def test_encode_rejects_bad_symbol(self):
        with pytest.raises(ValueError):
            encode_event((0, 2))
        with pytest.raises(ValueError):
            encode_event(())

    def test_negation_is_a_bijection(self):
        for code in range(alphabet_size(3)):
            negated = encode_event(tuple(-s for s in decode_event(code, 3)))
            back = encode_event(tuple(-s for s in decode_event(negated, 3)))
            assert back == code


class TestSymbolizeSample:
    def test_one_dim_reduces_to_dimension_path(self):
        row = [0.0, 0.5, 0.5, 0.2]
        seq = symbolize_sample(make_sample([row]), SymbolizerConfig(0.1))
        expected = [encode_event((s,)) for s in symbolize_dimension(row, 0.1)]
        assert list(seq.codes) == expected

    def test_length_and_range_contract(self):
        rng = np.random.default_rng(0)
        sample = normalize_sample(make_sample(rng.random((3, 10)), "s", "lab"))
        seq = symbolize_sample(sample, SymbolizerConfig(0.05))
        assert len(seq) == 9
        assert seq.label == "lab"
        assert all(0 <= c < 27 for c in seq.codes)

    def test_padded_tail_is_all_flat(self):
        flat_code = encode_event((0, 0))
        sample = make_sample([[0.0, 1.0, 0.4], [0.3, 0.1, 0.9]], "s")
        padded = pad_to_length(sample, 7)
        seq = symbolize_sample(normalize_sample(padded), SymbolizerConfig(0.05))
        base = symbolize_sample(normalize_sample(sample), SymbolizerConfig(0.05))
        assert seq.codes[:2] == base.codes
        assert seq.codes[2:] == (flat_code,) * 4

    def test_affine_transform_leaves_events_unchanged(self):
        rng = np.random.default_rng(42)
        values = rng.random((2, 30))
        cfg = SymbolizerConfig(0.05)
        base = symbolize_sample(normalize_sample(make_sample(values)), cfg)
        for a, b in [(3.0, -2.0), (0.001, 10.0), (875.2, -9.9)]:
            moved = symbolize_sample(normalize_sample(make_sample(a * values + b)), cfg)
            assert moved.codes == base.codes

    def test_multidim_time_reversal_maps_through_negation(self):
        rng = np.random.default_rng(5)
        values = rng.random((2, 12))
        cfg = SymbolizerConfig(0.1)
        forward = symbolize_sample(normalize_sample(make_sample(values)), cfg)
        backward = symbolize_sample(
            normalize_sample(make_sample(values[:, ::-1])), cfg
        )
        negated = [
            encode_event(tuple(-s for s in decode_event(c, 2)))
            for c in forward.codes[::-1]
        ]
        assert list(backward.codes) == negated


class TestExplain:
    def test_two_dims(self):
        assert explain_event(8, 2) == "dim_0: up, dim_1: up"

    def test_all_flat(self):
        assert explain_event(13, 3) == "dim_0: flat, dim_1: flat, dim_2: flat"

    def test_invalid_code(self):
        with pytest.raises(InvalidCodeError):
            explain_event(27, 3)

    def test_tuple_description(self):
        text = explain_tuple((8, 0), 2)
        assert text == "dim_0: up, dim_1: up -> dim_0: down, dim_1: down"


class TestEventFiles:
    def make_sequences(self):
        rng = np.random.default_rng(9)
        ds = MtsDataset.from_samples(
            tuple(
                make_sample(rng.random((2, 6)), f"s{i}", "c" if i % 2 else None)
                for i in range(3)
            )
        )
        return convert_dataset(ds, SymbolizerConfig(0.05))

    def test_round_trip(self, tmp_path):
        seqs = self.make_sequences()
        path = tmp_path / "events.csv"
        write_events(seqs, SymbolizerConfig(0.05), path)
        loaded, cfg = load_events(path)
        assert cfg.delta == 0.05
        assert loaded.dims == 2
        assert [s.sample_id for s in loaded] == [s.sample_id for s in seqs]
        assert [s.codes for s in loaded] == [s.codes for s in seqs]
        assert [s.label for s in loaded] == [s.label for s in seqs]

    def test_missing_metadata(self, tmp_path):
        seqs = self.make_sequences()
        path = tmp_path / "events.csv"
        write_events(seqs, SymbolizerConfig(0.05), path)
        (tmp_path / "events.csv.meta.json").unlink()
        with pytest.raises(SchemaError, match="meta"):
            load_events(path)

    def test_sequence_validates_codes(self):
        with pytest.raises(InvalidCodeError):
            EventSequence("s", None, 1, (3,))
        with pytest.raises(TooShortError):
            EventSequence("s", None, 1, ())

    @pytest.mark.parametrize(
        "codes, bad", [((1.5, True), "1.5"), (np.array([2.9]), "2.9"), ((True,), "True")]
    )
    def test_sequence_rejects_non_integer_codes(self, codes, bad):
        with pytest.raises(InvalidCodeError, match=f"^sequence 's': non-integer code {bad}$"):
            EventSequence("s", None, 1, codes)

    def test_sequence_takes_numpy_integers(self):
        assert EventSequence("s", None, 1, np.array([2, 0], dtype=np.uint8)).codes == (2, 0)
        codes = EventSequence("s", None, 1, (np.int64(1), 2)).codes
        assert codes == (1, 2) and all(type(c) is int for c in codes)

    def test_mixed_dims_rejected_naming_the_sample(self, tmp_path):
        seqs = [EventSequence("a", None, 2, (8,)), EventSequence("b", None, 1, (2,))]
        with pytest.raises(IncompatibleVocabularyError, match="sample 'b' has 1 dimensions"):
            batch = EventBatch.from_sequences(seqs)
            write_events(batch, SymbolizerConfig(0.05), tmp_path / "events.csv")
        assert not (tmp_path / "events.csv").exists()


@st.composite
def mixed_datasets(draw):
    """Samples of mixed lengths; small value sets make constant dimensions common."""
    dims = draw(st.integers(1, 3))
    samples = []
    for i in range(draw(st.integers(1, 8))):
        length = draw(st.integers(2, 7))
        values = draw(
            st.lists(
                st.lists(st.sampled_from([0.0, 1.0, 2.5, -3.0, 1e-9]), min_size=length, max_size=length)
                | st.lists(st.floats(-1e6, 1e6), min_size=length, max_size=length),
                min_size=dims,
                max_size=dims,
            )
        )
        samples.append(make_sample(values, f"s{i}", draw(st.sampled_from([None, "a", "b"]))))
    return MtsDataset.from_samples(tuple(samples))


class TestBatchedConvert:
    @given(
        mixed_datasets(),
        st.sampled_from([None, "max", 3, 6]),
        st.sampled_from([0.0, 0.05, 0.3]),
        st.integers(1, 70),
        st.sampled_from([1, 7, 64, dataset_module._BLOCK_CELLS]),
    )
    def test_equals_per_sample_symbolization(self, dataset, pad_to, delta, copies, cells):
        # copies of the drawn samples, in turn, make groups that chunks end inside: under
        # the patch a chunk holds the lane floor's ceil(64 / D) samples, and a group's
        # last chunk can hold one
        values = np.tile(dataset.values, (copies, 1))
        starts = [dataset.offsets[:-1] + k * len(dataset.values) for k in range(copies)]
        offsets = np.append(np.concatenate(starts), len(values))
        ids = tuple(f"{sid}-{k}" for k in range(copies) for sid in dataset.ids)
        copied = MtsDataset(values, offsets, ids, dataset.labels * copies)
        if pad_to == "max":
            pad_to = dataset.t_max
        config = SymbolizerConfig(delta)
        with mock.patch.object(dataset_module, "_BLOCK_CELLS", cells):
            batched = convert_dataset(copied, config, pad_to)
        expected = []
        for s in dataset.samples:
            padded = pad_to_length(s, max(s.length, pad_to or 0))
            expected.append(symbolize_sample(normalize_sample(padded), config))
        assert [q.sample_id for q in batched] == list(ids)
        assert [(q.label, q.dims, q.codes) for q in batched] == [
            (q.label, q.dims, q.codes) for q in expected * copies
        ]

    def test_range_overflowing_float64(self):
        # -1e308..1e308 spans 2e308, past the largest float64
        ds = MtsDataset.from_samples(
            (
                make_sample([[-1e308, 0.0, 1e308, -1e308]], "wide"),
                make_sample([[0.0, 1.0, 2.0, 0.5]], "narrow"),
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide, narrow = convert_dataset(ds, SymbolizerConfig(0.05))
        assert wide.codes == (2, 2, 0)
        assert narrow.codes == (2, 2, 0)
        # in a time-major (T, D, n) block, a series whose range fits is normalized as on its own
        block = np.stack([s.values.T for s in ds], axis=-1)
        assert (
            min_max_normalize(block)[..., 1].tobytes() == min_max_normalize(block[..., 1]).tobytes()
        )

    def test_longer_samples_are_not_cut(self):
        ds = MtsDataset.from_samples(
            (make_sample([[0.0, 1.0, 0.0, 1.0]], "long"), make_sample([[0.0, 1.0]], "short"))
        )
        long, short = convert_dataset(ds, SymbolizerConfig(0.05), pad_to=3)
        assert long.codes == (2, 0, 2)
        assert short.codes == (2, 1)


def plain_codes(dims_values, delta):
    """Event codes of one raw sample, given as D lists of floats, in plain Python.

    Each series is scaled by ``(x - lo) / (hi - lo)`` (all zeros when constant),
    each step difference is up above ``delta``, down below ``-delta`` and flat
    otherwise, and the digits combine in base 3 with dimension 0 least significant.
    """
    scaled = []
    for series in dims_values:
        lo, hi = min(series), max(series)
        scaled.append([(x - lo) / (hi - lo) if hi > lo else 0.0 for x in series])
    codes = []
    for t in range(len(scaled[0]) - 1):
        code = 0
        for d, series in enumerate(scaled):
            diff = series[t + 1] - series[t]
            code += (2 if diff > delta else 0 if diff < -delta else 1) * 3**d
        codes.append(code)
    return codes


@st.composite
def plain_datasets(draw):
    """Ragged samples of 1-4 dimensions; constant dimensions are drawn on purpose."""
    dims = draw(st.integers(1, 4))
    samples = []
    for i in range(draw(st.integers(1, 6))):
        length = draw(st.integers(2, 7))
        series = st.one_of(
            st.floats(-1e6, 1e6).map(lambda x: [x] * length),
            st.lists(st.sampled_from([0.0, 1.0, 2.5, -3.0]), min_size=length, max_size=length),
            st.lists(st.floats(-1e6, 1e6), min_size=length, max_size=length),
        )
        samples.append(draw(st.lists(series, min_size=dims, max_size=dims)))
    return samples


class TestConvertAgainstPlainPython:
    @given(plain_datasets(), st.sampled_from([None, "max", 3]), st.sampled_from([0.0, 0.05, 0.3]))
    def test_equals_a_plain_python_loop(self, samples, pad_to, delta):
        ds = MtsDataset.from_samples(make_sample(v, f"s{i}") for i, v in enumerate(samples))
        if pad_to == "max":
            pad_to = ds.t_max
        expected = []
        for values in samples:
            extra = max(0, (pad_to or 0) - len(values[0]))
            expected.append(plain_codes([v + v[-1:] * extra for v in values], delta))
        batch = convert_dataset(ds, SymbolizerConfig(delta), pad_to)
        assert [list(q.codes) for q in batch] == expected


class TestConvertLeavesTheDatasetAlone:
    """A one-sample dataset's group is a view of the read-only value block, a ragged
    dataset's single-sample group a gathered copy: either way the codes are right and
    the dataset is left as it was, so the kernel copies before it normalizes in place."""

    @pytest.mark.parametrize("pad", [False, True])
    @pytest.mark.parametrize("lengths", [(5,), (5, 3, 3)], ids=["one-sample", "ragged"])
    def test_single_sample_groups(self, lengths, pad):
        values = np.random.default_rng(0).random((sum(lengths), 2))
        ids = tuple(f"s{i}" for i in range(len(lengths)))
        ds = MtsDataset(values, np.cumsum((0,) + lengths), ids, ("a",) * len(ids))
        before = ds.values.tobytes()
        pad_to = ds.t_max if pad else None
        config = SymbolizerConfig(0.05)
        batch = convert_dataset(ds, config, pad_to)
        expected = [
            symbolize_sample(normalize_sample(pad_to_length(s, max(s.length, pad_to or 0))), config)
            for s in ds
        ]
        assert [q.codes for q in batch] == [q.codes for q in expected]
        assert not ds.values.flags.writeable
        assert ds.values.tobytes() == before


class TestEventFileErrors:
    def write(self, tmp_path, body, meta='{"dims": 1, "delta": 0.05}'):
        path = tmp_path / "events.csv"
        path.write_text("sample_id,label,t,event_code\n" + body)
        (tmp_path / "events.csv.meta.json").write_text(meta)
        return path

    def test_malformed_metadata_is_a_schema_error(self, tmp_path):
        path = self.write(tmp_path, "a,,0,1\n", meta="{not json")
        with pytest.raises(SchemaError, match="bad metadata"):
            load_events(path)

    def test_non_integer_code_names_row(self, tmp_path):
        path = self.write(tmp_path, "a,,0,1\na,,1,1.5\n")
        with pytest.raises(ParseError, match="row 3"):
            load_events(path)

    def test_row_parser_reads_what_numpy_rejects(self, tmp_path):
        # int() reads '1_0' and '٢'; numpy does not, so the row parser takes over
        path = self.write(tmp_path, "a,x,1_0,2\n" + "".join(f"a,x,{t},٢\n" for t in range(10)))
        (seq,), _ = load_events(path)
        assert seq.codes == (2,) * 11

    def test_out_of_range_code(self, tmp_path):
        path = self.write(tmp_path, "a,,0,1\na,,1,3\n")
        with pytest.raises(InvalidCodeError, match="code 3"):
            load_events(path)

    @pytest.mark.parametrize("dims", ["2.5", "true", '"2"'])
    def test_non_integer_dims_is_a_schema_error(self, tmp_path, dims):
        path = self.write(tmp_path, "a,,0,1\n", meta=f'{{"dims": {dims}, "delta": 0.05}}')
        with pytest.raises(SchemaError, match="meta.json: bad metadata: dims .* is not an integer"):
            load_events(path)


class TestEventBatch:
    @given(
        st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=6), min_size=1, max_size=6),
        st.data(),
    )
    def test_take_equals_slicing_each_sample(self, rows, data):
        sequences = [EventSequence(f"s{i}", "ab"[i % 2], 2, codes) for i, codes in enumerate(rows)]
        batch = EventBatch.from_sequences(sequences, 2)
        picked = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=8))
        taken = batch.take(picked)
        assert [(q.sample_id, q.label, q.codes) for q in taken] == [
            (sequences[i].sample_id, sequences[i].label, sequences[i].codes) for i in picked
        ]

    def test_joining_no_sequences_needs_dims(self):
        with pytest.raises(EmptyInputError, match="no event sequences"):
            EventBatch.from_sequences([])
        empty = EventBatch.from_sequences([], dims=2)
        assert (len(empty), empty.dims, empty.offsets.tolist()) == (0, 2, [0])

    def test_first_bad_sample_is_named(self):
        codes, offsets = np.array([0, 1, 2, 9, 1, 10]), np.array([0, 3, 4, 6])
        with pytest.raises(InvalidCodeError, match=r"^sequence 'b': code 9 outside \[0, 9\)$"):
            EventBatch(codes, offsets, ("a", "b", "c"), (None,) * 3, 2)
        with pytest.raises(TooShortError, match="'b' has no events"):
            EventBatch(np.array([0, 1]), np.array([0, 1, 1, 2]), ("a", "b", "c"), (None,) * 3, 2)
        # a bad code in 'a' comes before the empty 'b'
        with pytest.raises(InvalidCodeError, match=r"^sequence 'a': code 9 outside \[0, 9\)$"):
            EventBatch(np.array([9, 0]), np.array([0, 1, 1, 2]), ("a", "b", "c"), (None,) * 3, 2)
        with pytest.raises(ValueError, match="offsets"):
            EventBatch(np.array([0, 1]), np.array([0, 1]), ("a",), (None,), 2)
        with pytest.raises(TypeError, match="int64"):
            EventBatch(np.array([1.5]), np.array([0, 1]), ("a",), (None,), 2)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 26), min_size=1, max_size=7),
                st.sampled_from([None, "a", "b,c", 'q"t']),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_event_file_round_trip(self, rows):
        sequences = [EventSequence(f"s{i}", label, 3, codes) for i, (codes, label) in enumerate(rows)]
        batch = EventBatch.from_sequences(sequences)
        with tempfile.TemporaryDirectory() as tmp:
            write_events(batch, SymbolizerConfig(0.1), Path(tmp) / "events.csv")
            loaded, config = load_events(Path(tmp) / "events.csv")
        assert (config.delta, loaded.dims) == (0.1, 3)
        assert loaded.ids == batch.ids and loaded.labels == batch.labels
        assert np.array_equal(loaded.codes, batch.codes)
        assert np.array_equal(loaded.offsets, batch.offsets)
        assert loaded.codes.dtype == np.int64
        for i, seq in enumerate(sequences):
            assert loaded[i] == seq
            assert tuple(loaded.codes[loaded.offsets[i] : loaded.offsets[i + 1]]) == seq.codes
        assert loaded[-1] == sequences[-1]
        assert list(loaded) == sequences

    def test_index_past_the_end(self):
        batch = EventBatch.from_sequences([EventSequence("a", None, 1, (0, 2))])
        assert batch[0] == batch[-1]
        for i in (1, -2):
            with pytest.raises(IndexError):
                batch[i]

    def test_same_message_as_a_sequence(self):
        with pytest.raises(InvalidCodeError) as one:
            EventSequence("s", None, 1, (0, -2, 4))
        with pytest.raises(InvalidCodeError) as batch:
            EventBatch(np.array([0, -2, 4]), np.array([0, 3]), ("s",), (None,), 1)
        assert str(batch.value) == str(one.value)

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.integers(0, 8), st.integers(-3, 11), st.sampled_from([-(2**63), 2**63 - 1])
                ),
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_fails_as_its_first_bad_sequence(self, samples):
        ids = tuple(f"s{i}" for i in range(len(samples)))
        expected = None
        for sid, codes in zip(ids, samples):
            try:
                EventSequence(sid, None, 2, codes)
            except (TooShortError, InvalidCodeError) as exc:
                expected = exc
                break
        codes = np.array([c for sample in samples for c in sample], dtype=np.int64)
        offsets = np.cumsum([0] + [len(sample) for sample in samples])
        if expected is None:
            batch = EventBatch(codes, offsets, ids, (None,) * len(ids), 2)
            assert [q.codes for q in batch] == [tuple(sample) for sample in samples]
            return
        with pytest.raises((TooShortError, InvalidCodeError)) as raised:
            EventBatch(codes, offsets, ids, (None,) * len(ids), 2)
        assert type(raised.value) is type(expected) and str(raised.value) == str(expected)


class TestReadOnlyColumns:
    """The arrays a container checked once cannot be written afterwards."""

    def test_every_producer_freezes_its_arrays(self, tmp_path, monkeypatch):
        def handed_read_only(array, dtype=None):
            assert not array.flags.writeable, "a producer's array would be copied"
            return read_only(array, dtype)

        read_only = dataset_module._read_only
        monkeypatch.setattr(dataset_module, "_read_only", handed_read_only)
        monkeypatch.setattr(events_module, "_read_only", handed_read_only)
        ds = generate_synthetic(run_length_spec(0.4, samples_per_class=2, length=6))
        write_csv(ds, tmp_path / "d.csv")
        datasets = [ds, load_csv(tmp_path / "d.csv"), MtsDataset.from_samples(ds.samples)]
        batch = convert_dataset(datasets[1], SymbolizerConfig(0.05))
        write_events(batch, SymbolizerConfig(0.05), tmp_path / "e.csv")
        batches = [batch, batch.take([2, 0]), EventBatch.from_sequences(list(batch))]
        batches.append(load_events(tmp_path / "e.csv")[0])
        arrays = [a for d in datasets for a in (d.values, d.offsets)]
        arrays += [a for b in batches for a in (b.codes, b.offsets)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[1] = array[0]

    def test_writeable_index_arrays_are_copied(self):
        values, offsets = np.array([[0.0], [1.0], [2.0], [2.0], [1.0], [0.0]]), np.array([0, 3, 6])
        ds = MtsDataset(values, offsets, ("a", "b"), (None, None))
        offsets[1] = 2  # once silently symbolized as a 2-step and a 4-step sample
        batch = convert_dataset(ds, SymbolizerConfig(0.05))
        assert batch.offsets.tolist() == [0, 2, 4] and batch.codes.tolist() == [2, 2, 0, 0]
        codes, offsets = np.array([1, 2, 0]), np.array([0, 2, 3])
        batch = EventBatch(codes, offsets, ("a", "b"), (None, None), 1)
        codes[0], offsets[1] = 0, 1
        assert batch.codes.tolist() == [1, 2, 0] and batch.offsets.tolist() == [0, 2, 3]

    def test_read_only_arrays_are_kept_uncopied(self):
        # the producers freeze what they build, so constructing copies nothing
        codes, offsets, values = np.array([1, 2, 0, 1]), np.array([0, 2, 4]), np.zeros((4, 1))
        for array in (codes, offsets, values):
            array.setflags(write=False)
        batch = EventBatch(codes, offsets, ("a", "b"), (None, None), 1)
        assert batch.codes is codes and batch.offsets is offsets
        ds = MtsDataset(values, offsets, ("a", "b"), (None, None))
        assert ds.values is values and ds.offsets is offsets

    def test_read_only_views_are_copied_unless_their_base_is_read_only(self):
        values = np.array([[0.0], [1.0], [2.0], [2.0], [1.0], [0.0]])
        base = np.array([0, 3, 6])
        offsets = base.view()
        offsets.setflags(write=False)
        ds = MtsDataset(values, offsets, ("a", "b"), (None, None))
        base[1] = 2  # once read through the view as offsets [0 2 6], symbolized as [0 1 4]
        assert ds.offsets.tolist() == [0, 3, 6]
        assert convert_dataset(ds, SymbolizerConfig(0.05)).offsets.tolist() == [0, 2, 4]
        base = np.array([1, 2, 0])
        codes = base[:]
        codes.setflags(write=False)
        batch = EventBatch(codes, np.array([0, 2, 3]), ("a", "b"), (None, None), 1)
        base[0] = 0
        assert batch.codes.tolist() == [1, 2, 0]
        base.setflags(write=False)  # every array the view reaches is read-only: kept
        view = base[1:]
        assert EventBatch(view, np.array([0, 1, 2]), ("a", "b"), (None, None), 1).codes is view

    @pytest.mark.parametrize("kind", ["array", "memoryview"])
    def test_read_only_views_of_a_bytearray_are_copied(self, kind):
        buffers = []

        def frozen(values):
            """A read-only view of ``values`` in a bytearray that stays writeable."""
            values = np.array(values)
            buffers.append(bytearray(values.tobytes()))
            if kind == "memoryview":
                return memoryview(buffers[-1]).toreadonly().cast(values.dtype.char, values.shape)
            flat = np.frombuffer(buffers[-1], values.dtype)
            flat.setflags(write=False)
            return flat.reshape(values.shape)

        values, offsets = [[0.0], [1.0], [2.0], [2.0], [1.0], [0.0]], frozen([0, 3, 6])
        ds = MtsDataset(frozen(values), offsets, ("a", "b"), (None, None))
        batch = EventBatch(frozen([1, 2, 0]), frozen([0, 2, 3]), ("a", "b"), (None, None), 1)
        sample = MtsSample("s", None, frozen([[0.0, 1.0, 0.5]]))
        vector = FeatureVector("s", None, frozen([0.25, 0.75]))
        buffers[0][8:16] = np.int64(2).tobytes()  # once read as offsets [0 2 6]
        for buffer in buffers[1:]:
            buffer[:] = bytes(len(buffer))
        assert ds.values.tolist() == values and ds.offsets.tolist() == [0, 3, 6]
        assert convert_dataset(ds, SymbolizerConfig(0.05)).offsets.tolist() == [0, 2, 4]
        assert batch.codes.tolist() == [1, 2, 0] and batch.offsets.tolist() == [0, 2, 3]
        assert sample.values.tolist() == [[0.0, 1.0, 0.5]]
        assert vector.values.tolist() == [0.25, 0.75]
