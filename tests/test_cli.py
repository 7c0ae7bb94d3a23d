import argparse
import dataclasses
import json
import re

import pytest

from stemts import (
    ClassifierConfig,
    EventBatch,
    EventSequence,
    MinerConfig,
    SplitSpec,
    SymbolizerConfig,
    load_csv,
    load_events,
    write_events,
)
from stemts import cli
from stemts.cli import build_parser, main
from stemts.evaluate import CLASSIFIERS, METRICS

SPEC_YAML = """\
classes:
  - label: run2
    motif:
      - [[up, 2], [down, 2]]
      - [[up, 2], [down, 2]]
  - label: run3
    motif:
      - [[up, 3], [down, 3]]
      - [[up, 3], [down, 3]]
  - label: run4
    motif:
      - [[up, 4], [down, 4]]
      - [[up, 4], [down, 4]]
  - label: run6
    motif:
      - [[up, 6], [down, 6]]
      - [[up, 6], [down, 6]]
samples_per_class: 10
length: 40
noise_amplitude: 0.0
seed: 7
separable: true
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(SPEC_YAML)
    return path


def strip_timings(payload):
    for method in payload["methods"].values():
        method.pop("timings")
    return payload


def text_without_cpu_section(text):
    return text.split("CPU time (seconds)")[0]


class TestSynth:
    def test_writes_loadable_dataset(self, spec_file, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["synth", str(spec_file), "--out", str(out)]) == 0
        ds = load_csv(out)
        assert len(ds) == 40
        assert ds.dims == 2

    def test_identical_across_runs(self, spec_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["-q", "synth", str(spec_file), "--out", str(a)]) == 0
        assert main(["-q", "synth", str(spec_file), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_spec_names_path(self, tmp_path, capsys):
        rc = main(["synth", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o.csv")])
        assert rc != 0
        assert "nope.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "-1"),
            ("noise_amplitude", ".inf"),
            ("noise_amplitude", ".nan"),
            ("noise_amplitude", "1e308"),
            ("noise_amplitude", "1.0e+308"),  # PyYAML reads a float only with a dot
        ],
    )
    def test_bad_seed_or_noise_is_one_error_line(self, tmp_path, capsys, key, value):
        # not separable: that mode's own noise bound would reject these amplitudes first
        text = SPEC_YAML.replace("separable: true\n", "")
        spec = tmp_path / "spec.yaml"
        spec.write_text(re.sub(rf"^{key}: .*$", f"{key}: {value}", text, flags=re.M))
        capsys.readouterr()
        assert main(["-q", "synth", str(spec), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and key in err, err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("samples_per_class", "2.9", "samples_per_class must be an integer, got 2.9"),
            ("length", "10.7", "length must be an integer, got 10.7"),
            ("seed", "true", "seed must be an integer, got True"),
            ("separable", '"false"', "separable must be true or false, got 'false'"),
            ("noise_amplitude", "true", "noise_amplitude must be a real number, got True"),
            ("step_size", '"1.0"', "step_size must be a real number, got '1.0'"),
        ],
    )
    def test_mistyped_value_is_one_error_line(self, tmp_path, capsys, key, value, message):
        # each of these was truncated or converted into a value that loaded
        text = SPEC_YAML if key in SPEC_YAML else f"{SPEC_YAML}{key}: 1.0\n"
        spec = tmp_path / "spec.yaml"
        spec.write_text(re.sub(rf"^{key}: .*$", f"{key}: {value}", text, flags=re.M))
        capsys.readouterr()
        assert main(["-q", "synth", str(spec), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_float_without_a_dot_is_one_error_line_with_its_yaml_spelling(self, tmp_path, capsys):
        # YAML 1.1 reads 1e-3 as text; the spec format keeps it text, and says how to write it
        spec = tmp_path / "spec.yaml"
        spec.write_text(re.sub(r"^noise_amplitude: .*$", "noise_amplitude: 1e-3", SPEC_YAML, flags=re.M))
        capsys.readouterr()
        assert main(["-q", "synth", str(spec), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: noise_amplitude must be a real number, got '1e-3', "
            "which YAML reads as text: write it as 1.0e-3\n"
        )
        assert not (tmp_path / "o.csv").exists()
        spec.write_text(spec.read_text().replace("1e-3", "1.0e-3"))
        assert main(["-q", "synth", str(spec), "--out", str(tmp_path / "o.csv")]) == 0

    def test_mistyped_segment_length_is_one_error_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text(SPEC_YAML.replace("[up, 2], [down, 2]]\n", "[up, 2.7], [down, 2]]\n", 1))
        capsys.readouterr()
        assert main(["-q", "synth", str(spec), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == "error: segment length must be an integer, got 2.7\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("separable", [True, False])
    @pytest.mark.parametrize("value", [".nan", ".inf", "1e308", "1.0e+308"])
    def test_bad_step_size_is_one_error_line(self, tmp_path, capsys, value, separable):
        # 1e308 x (length - 1) overflows: the trend, not the step, must be finite
        text = SPEC_YAML if separable else SPEC_YAML.replace("separable: true\n", "")
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"{text}step_size: {value}\n")
        capsys.readouterr()
        assert main(["-q", "synth", str(spec), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: step_size "), err
        assert not (tmp_path / "o.csv").exists()


class TestConvert:
    def test_constant_dataset_is_all_flat(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text(
            "sample_id,label,t,dim_0\n"
            + "".join(f"c,x,{t},5.0\n" for t in range(4))
        )
        out = tmp_path / "events.csv"
        assert main(["-q", "convert", "--in", str(data), "--out", str(out)]) == 0
        seqs, cfg = load_events(out)
        assert seqs.dims == 1
        assert cfg.delta == 0.05
        assert seqs[0].codes == (1, 1, 1)

    def test_huge_delta_keeps_only_full_range_jumps(self, tmp_path):
        data = tmp_path / "d.csv"
        rows = [(0, 0.0), (1, 1.0), (2, 0.5), (3, 0.51)]
        data.write_text(
            "sample_id,label,t,dim_0\n"
            + "".join(f"s,x,{t},{v}\n" for t, v in rows)
        )
        out = tmp_path / "events.csv"
        assert main(["-q", "convert", "--in", str(data), "--delta", "0.99", "--out", str(out)]) == 0
        seqs, _ = load_events(out)
        assert seqs[0].codes == (2, 1, 1)

    def test_pad_flag_equalizes_lengths(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text(
            "sample_id,label,t,dim_0\n"
            "a,x,0,0.0\na,x,1,1.0\n"
            "b,x,0,0.0\nb,x,1,1.0\nb,x,2,0.0\nb,x,3,1.0\n"
        )
        out = tmp_path / "events.csv"
        assert main(["-q", "convert", "--in", str(data), "--pad", "--out", str(out)]) == 0
        seqs, _ = load_events(out)
        assert {len(s) for s in seqs} == {3}


class TestMine:
    def write_toy_events(self, tmp_path):
        seqs = [
            EventSequence("A", None, 2, (4, 8, 4, 8)),
            EventSequence("B", None, 2, (4, 8, 0)),
        ]
        path = tmp_path / "events.csv"
        write_events(EventBatch.from_sequences(seqs), SymbolizerConfig(0.05), path)
        return path

    def test_toy_pair(self, tmp_path):
        events = self.write_toy_events(tmp_path)
        out = tmp_path / "features.json"
        rc = main(
            ["-q", "mine", "--in", str(events), "--min-support", "2", "--max-len", "2", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [tuple(r["codes"]) for r in payload["features"]] == [(8,), (4, 8)]

    def test_impossible_support_warns_but_succeeds(self, tmp_path, capsys):
        events = self.write_toy_events(tmp_path)
        out = tmp_path / "features.json"
        rc = main(["-q", "mine", "--in", str(events), "--min-support", "99", "--out", str(out)])
        assert rc == 0
        assert "warning" in capsys.readouterr().err
        assert json.loads(out.read_text())["features"] == []

    def test_deterministic_output(self, tmp_path):
        events = self.write_toy_events(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["-q", "mine", "--in", str(events), "--min-support", "2", "--out", str(a)])
        main(["-q", "mine", "--in", str(events), "--min-support", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_fractional_support_flag(self, tmp_path):
        events = self.write_toy_events(tmp_path)
        out = tmp_path / "features.json"
        main(["-q", "mine", "--in", str(events), "--min-support", "0.9", "--out", str(out)])
        assert json.loads(out.read_text())["resolved_min_support"] == 2


class TestEval:
    def run_eval(self, spec_file, tmp_path, prefix, extra=()):
        data = tmp_path / "data.csv"
        if not data.exists():
            assert main(["-q", "synth", str(spec_file), "--out", str(data)]) == 0
        out = tmp_path / prefix
        args = [
            "-q", "eval", "--in", str(data), "--delta", "0.05",
            "--min-support", "2", "--max-len", "4", "--k", "1",
            "--metric", "euclidean", "--train-frac", "0.8", "--seed", "0",
            "--out", str(out), *extra,
        ]
        assert main(args) == 0
        return out

    def test_separable_data_reaches_perfect_accuracy(self, spec_file, tmp_path):
        out = self.run_eval(spec_file, tmp_path, "report")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["methods"]["stem"]["accuracy"] == 1.0
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.vocab.json").exists()

    def test_baseline_flag_adds_method_row(self, spec_file, tmp_path):
        self.run_eval(spec_file, tmp_path, "report", extra=["--baseline"])
        payload = json.loads((tmp_path / "report.json").read_text())
        assert set(payload["methods"]) == {"stem", "baseline"}
        text = (tmp_path / "report.txt").read_text()
        assert "baseline" in text

    def test_identical_reports_modulo_timings(self, spec_file, tmp_path):
        self.run_eval(spec_file, tmp_path, "one", extra=["--baseline"])
        self.run_eval(spec_file, tmp_path, "two", extra=["--baseline"])
        one = strip_timings(json.loads((tmp_path / "one.json").read_text()))
        two = strip_timings(json.loads((tmp_path / "two.json").read_text()))
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
        assert text_without_cpu_section(
            (tmp_path / "one.txt").read_text()
        ) == text_without_cpu_section((tmp_path / "two.txt").read_text())
        assert (tmp_path / "one.vocab.json").read_bytes() == (
            tmp_path / "two.vocab.json"
        ).read_bytes()

    def test_negative_zero_delta_writes_zero(self, spec_file, tmp_path):
        # -0 and 0 give the same codes, so both write the same files, with delta 0.0
        for name, delta in (("neg", "-0"), ("pos", "0")):
            self.run_eval(spec_file, tmp_path, name, extra=["--baseline", "--delta", delta])
            events = str(tmp_path / f"{name}.events.csv")
            argv = ["-q", "convert", "--in", str(tmp_path / "data.csv"), "--delta", delta]
            assert main([*argv, "--out", events]) == 0
        neg, pos = (json.loads((tmp_path / f"{n}.json").read_text()) for n in ("neg", "pos"))
        assert json.dumps(strip_timings(neg)) == json.dumps(strip_timings(pos))
        assert '"delta": 0.0' in json.dumps(neg)
        assert text_without_cpu_section((tmp_path / "neg.txt").read_text()) == (
            text_without_cpu_section((tmp_path / "pos.txt").read_text())
        )
        for suffix in (".vocab.json", ".events.csv", ".events.csv.meta.json"):
            neg, pos = ((tmp_path / f"{n}{suffix}").read_bytes() for n in ("neg", "pos"))
            assert neg == pos, suffix

    def test_env_seed_fallback(self, spec_file, tmp_path, monkeypatch):
        monkeypatch.setenv("STEM_SEED", "123")
        data = tmp_path / "data.csv"
        assert main(["-q", "synth", str(spec_file), "--out", str(data)]) == 0
        out = tmp_path / "report"
        assert main(["-q", "eval", "--in", str(data), "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["methods"]["stem"]["config"]["seed"] == 123

    def test_bad_env_seed_is_one_error_line(self, spec_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STEM_SEED", "abc")
        data = tmp_path / "data.csv"
        assert main(["-q", "synth", str(spec_file), "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["-q", "eval", "--in", str(data), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "error: STEM_SEED must be an integer, got 'abc'\n"
        assert not (tmp_path / "r.json").exists()
        # an explicit --seed does not read the variable
        argv = ["-q", "eval", "--in", str(data), "--seed", "1", "--out", str(tmp_path / "r")]
        assert main(argv) == 0


class TestExplain:
    def test_single_code(self, capsys):
        assert main(["explain", "--code", "13", "--dims", "3"]) == 0
        assert capsys.readouterr().out.strip() == "dim_0: flat, dim_1: flat, dim_2: flat"

    def test_invalid_code(self, capsys):
        assert main(["explain", "--code", "99", "--dims", "2"]) != 0
        assert "error" in capsys.readouterr().err

    def test_code_without_dims(self, capsys):
        assert main(["explain", "--code", "3"]) != 0

    def test_feature_file_lines(self, tmp_path, capsys):
        seqs = [
            EventSequence("A", None, 2, (4, 8, 4, 8)),
            EventSequence("B", None, 2, (4, 8, 0)),
        ]
        events = tmp_path / "events.csv"
        write_events(EventBatch.from_sequences(seqs), SymbolizerConfig(0.05), events)
        features = tmp_path / "features.json"
        main(["-q", "mine", "--in", str(events), "--min-support", "2", "--max-len", "2", "--out", str(features)])
        capsys.readouterr()
        assert main(["explain", "--features", str(features)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "dim_0: up, dim_1: up" in lines[0]


class TestPipelineContract:
    def test_convert_mine_explain_chain(self, spec_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        events = tmp_path / "events.csv"
        features = tmp_path / "features.json"
        assert main(["-q", "synth", str(spec_file), "--out", str(data)]) == 0
        assert main(["-q", "convert", "--in", str(data), "--out", str(events)]) == 0
        assert main(["-q", "mine", "--in", str(events), "--min-support", "5", "--out", str(features)]) == 0
        capsys.readouterr()
        assert main(["explain", "--features", str(features)]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == len(json.loads(features.read_text())["features"])


    def test_commands_build_no_event_sequence(self, spec_file, tmp_path, monkeypatch):
        """convert, mine and eval pass batches from file to file, never one object per sample."""

        def refuse(self):
            raise AssertionError("an EventSequence was built")

        data, events = tmp_path / "data.csv", tmp_path / "events.csv"
        assert main(["-q", "synth", str(spec_file), "--out", str(data)]) == 0
        monkeypatch.setattr(EventSequence, "__post_init__", refuse)
        assert main(["-q", "convert", "--in", str(data), "--out", str(events)]) == 0
        mine = ["mine", "--in", str(events), "--min-support", "5"]
        assert main(["-q", *mine, "--out", str(tmp_path / "features.json")]) == 0
        evaluate = ["eval", "--in", str(data), "--baseline", "--out", str(tmp_path / "report")]
        assert main(["-q", *evaluate]) == 0


class TestSharedFlags:
    @staticmethod
    def helps(flag):
        """Help text of ``flag`` under each subcommand that takes it."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return {
            name: action.help
            for name, command in sub.choices.items()
            for action in command._actions
            if flag in action.option_strings
        }

    @pytest.mark.parametrize(
        "flag, commands",
        [
            ("--delta", {"convert", "eval"}),
            ("--min-support", {"mine", "eval"}),
            ("--max-len", {"mine", "eval"}),
            ("--gain-gamma", {"mine", "eval"}),
        ],
    )
    def test_same_help_under_every_command(self, flag, commands):
        helps = self.helps(flag)
        assert set(helps) == commands
        assert len(set(helps.values())) == 1 and None not in helps.values(), helps


def typed_fields(config):
    """A config's fields as (name, type, value), so ``1`` and ``1.0`` differ."""
    return [(name, type(value), value) for name, value in dataclasses.asdict(config).items()]


class TestDefaultsAreTheLibrarys:
    """With only ``--in`` and ``--out``, every command builds the library's default configs."""

    def test_commands_build_the_default_configs(self, spec_file, tmp_path, monkeypatch):
        monkeypatch.delenv("STEM_SEED", raising=False)
        built = {}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                built[name] = args
                return fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        for name in ("convert_dataset", "build_forest", "evaluate"):
            spy(name, getattr(cli, name))
        data, events = tmp_path / "data.csv", tmp_path / "events.csv"
        assert main(["-q", "synth", str(spec_file), "--out", str(data)]) == 0
        assert main(["-q", "convert", "--in", str(data), "--out", str(events)]) == 0
        assert main(["-q", "mine", "--in", str(events), "--out", str(tmp_path / "f.json")]) == 0
        assert main(["-q", "eval", "--in", str(data), "--out", str(tmp_path / "report")]) == 0

        _, symbolizer, pad_to = built["convert_dataset"]
        assert typed_fields(symbolizer) == typed_fields(SymbolizerConfig()) and pad_to is None
        assert typed_fields(built["build_forest"][1]) == typed_fields(MinerConfig())
        defaults = (SymbolizerConfig(), MinerConfig(), SplitSpec(), ClassifierConfig())
        assert [typed_fields(c) for c in built["evaluate"][1:]] == [
            typed_fields(c) for c in defaults
        ]

    def test_choices_are_the_librarys(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        choices = {a.dest: a.choices for a in sub.choices["eval"]._actions if a.choices}
        assert tuple(choices["metric"]) == METRICS
        assert tuple(choices["classifier"]) == CLASSIFIERS


class TestErrorSurface:
    """Bad flags and bad files end in one ``error:`` line and exit 1, never a traceback."""

    @pytest.fixture
    def files(self, spec_file, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["-q", "synth", str(spec_file), "--out", str(data)]) == 0
        events = tmp_path / "events.csv"
        assert main(["-q", "convert", "--in", str(data), "--out", str(events)]) == 0
        (tmp_path / "events.csv.meta.json").write_text('{"dims": 2, "delta": ')
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"sample_id,label,t,dim_0\ncaf\xe9,a,0,1.0\ncaf\xe9,a,1,2.0\n")
        latin1_events = tmp_path / "latin1_events.csv"
        latin1_events.write_bytes(b"sample_id,label,t,event_code\ncaf\xe9,a,0,1\n")
        (tmp_path / "latin1_events.csv.meta.json").write_text('{"dims": 1, "delta": 0.05}')
        (tmp_path / "bad.yaml").write_text("classes: [1, 2")
        return {
            "data": str(data),
            "events": str(events),
            "latin1": str(latin1),
            "latin1_events": str(latin1_events),
            "out": str(tmp_path / "out"),
            "bad_yaml": str(tmp_path / "bad.yaml"),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--code", "1", "--dims", "0"],
            ["convert", "--in", "{data}", "--delta", "1.5", "--out", "{out}"],
            ["eval", "--in", "{data}", "--k", "0", "--out", "{out}"],
            ["eval", "--in", "{data}", "--k", "999", "--out", "{out}"],
            ["eval", "--in", "{data}", "--train-frac", "1.5", "--out", "{out}"],
            ["mine", "--in", "{events}", "--out", "{out}"],
            ["convert", "--in", "{latin1}", "--out", "{out}"],
            ["mine", "--in", "{latin1_events}", "--out", "{out}"],
            ["explain", "--code", "1", "--dims", "40"],
            ["synth", "{bad_yaml}", "--out", "{out}"],
        ],
    )
    def test_one_error_line(self, files, capsys, argv):
        capsys.readouterr()
        assert main([arg.format(**files) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_split_without_test_samples(self, tmp_path, capsys):
        # every class has one sample, so a stratified split puts all of them in train
        data = tmp_path / "pair.csv"
        data.write_text("sample_id,label,t,dim_0\na0,a,0,1.0\na0,a,1,2.0\nb0,b,0,2.0\nb0,b,1,1.0\n")
        capsys.readouterr()
        assert main(["eval", "--in", str(data), "--baseline", "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "error: the split left no test samples\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("dims, status", [(39, 0), (40, 1)])
    def test_dimension_limit(self, tmp_path, capsys, dims, status):
        data = tmp_path / "wide.csv"
        header = ",".join(["sample_id", "label", "t"] + [f"dim_{d}" for d in range(dims)])
        rows = [f"s,a,{t}," + ",".join([f"{t}.0"] * dims) for t in range(3)]
        data.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        out = str(tmp_path / "e.csv")
        assert main(["-q", "convert", "--in", str(data), "--out", out]) == status
        err = capsys.readouterr().err
        if status:
            assert err == "error: dims must lie in [1, 39] (event codes are int64), got 40\n"
        else:
            assert err == ""
            assert load_events(tmp_path / "e.csv")[0][0].codes == (3**39 - 1,) * 2

    def test_code_beyond_int64(self, tmp_path, capsys):
        # numpy rejects the file, so the row parser reads it and keeps the Python int
        events = tmp_path / "events.csv"
        events.write_text("sample_id,label,t,event_code\na,,0,1\na,,1,99999999999999999999\n")
        (tmp_path / "events.csv.meta.json").write_text('{"dims": 1, "delta": 0.05}')
        capsys.readouterr()
        assert main(["mine", "--in", str(events), "--out", str(tmp_path / "f.json")]) == 1
        err = capsys.readouterr().err
        assert err == "error: sequence 'a': code 99999999999999999999 outside [0, 3)\n"
