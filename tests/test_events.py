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
    load_events,
    normalize_sample,
    pad_to_length,
    symbolize_dimension,
    symbolize_sample,
    write_events,
)
from stemts.dataset import MtsDataset
from stemts.errors import InvalidCodeError, ParseError, SchemaError, TooShortError

from conftest import make_sample


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

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            symbolize_dimension([0.0, 1.0], 1.0)

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

    def test_custom_names(self):
        assert explain_event(0, 2, ("x", "y")) == "x: down, y: down"

    def test_invalid_code(self):
        with pytest.raises(InvalidCodeError):
            explain_event(27, 3)

    def test_wrong_name_count(self):
        with pytest.raises(ValueError):
            explain_event(0, 2, ("only-one",))

    def test_tuple_description(self):
        text = explain_tuple((8, 0), 2)
        assert text == "dim_0: up, dim_1: up -> dim_0: down, dim_1: down"


class TestEventFiles:
    def make_sequences(self):
        rng = np.random.default_rng(9)
        ds = MtsDataset(
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
        loaded, cfg, dims = load_events(path)
        assert cfg.delta == 0.05
        assert dims == 2
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
    return MtsDataset(tuple(samples))


class TestBatchedConvert:
    @given(
        mixed_datasets(),
        st.sampled_from([None, "max", 3, 6]),
        st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_equals_per_sample_symbolization(self, dataset, pad_to, delta):
        if pad_to == "max":
            pad_to = dataset.t_max
        config = SymbolizerConfig(delta)
        batched = convert_dataset(dataset, config, pad_to)
        expected = []
        for s in dataset.samples:
            padded = pad_to_length(s, max(s.length, pad_to or 0))
            expected.append(symbolize_sample(normalize_sample(padded), config))
        assert [(q.sample_id, q.label, q.dims, q.codes) for q in batched] == [
            (q.sample_id, q.label, q.dims, q.codes) for q in expected
        ]

    def test_longer_samples_are_not_cut(self):
        ds = MtsDataset(
            (make_sample([[0.0, 1.0, 0.0, 1.0]], "long"), make_sample([[0.0, 1.0]], "short"))
        )
        long, short = convert_dataset(ds, SymbolizerConfig(0.05), pad_to=3)
        assert long.codes == (2, 0, 2)
        assert short.codes == (2, 1)


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
        (seq,), _, _ = load_events(path)
        assert seq.codes == (2,) * 11

    def test_out_of_range_code(self, tmp_path):
        path = self.write(tmp_path, "a,,0,1\na,,1,3\n")
        with pytest.raises(InvalidCodeError, match="code 3"):
            load_events(path)
