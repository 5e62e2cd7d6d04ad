"""Bad JSONL lines, as a property: one generated bad line in an otherwise
good input, followed by a line of every class that is skipped in every
field, through `run`, `run --resume` after a crash and each stage
subcommand, driven in-process through cli.main.

Every command exits with the code README gives for the line's class: a
line that is not a document (a field of a wrong JSON type, a lone
surrogate escape, nesting past the parser's depth, a ``meta.token_count``
that is not ``[0-9]+``) is skipped, counted in one ``skipped`` line, and
the command exits 0; invalid UTF-8 and a repeated id stop the command with
exit 2 before any stage runs; a ``meta.perplexity`` that is not a number
fails ``sample`` with exit 2. A failure prints one line, after the
``skipped`` line if any, without a traceback, and a ``stage failure:`` line
names the document. No ``.tmp`` file is left.
"""

import contextlib
import io
import json
import re
import shutil

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from corpusprep import pipeline
from corpusprep.cli import EXIT_OK, EXIT_STAGE, main
from corpusprep.config import KNOWN_STAGES, load_config

from pipeline_fixture import build_workspace, crash_after

# derandomized with a fixed number of examples, so the suite is
# deterministic: 9 commands x 20 examples take about 5 s on 2 cores
BAD_LINES = settings(derandomize=True, max_examples=20, deadline=None, database=None)
BAD_ID = "bad-line"
COMMANDS = ["run", "resume", *KNOWN_STAGES]
# the stage a run crashes after before it is resumed
CRASH_AFTER = "dedup_near"

SKIPPED, INPUT_ERROR, NOT_SAMPLED = "skipped", "input error", "sample fails"

# each JSON type, and the ones each field accepts; "meta.value" is a value
# of meta, "" the whole line
JSON_VALUES = {"string": "s", "int": 1, "float": 1.5, "bool": True, "null": None,
               "list": ["s"], "object": {"k": "s"}}
ACCEPTED = {"": {"object"}, "id": {"string"}, "source": {"string"}, "text": {"string"},
            "url": {"string", "null"}, "meta": {"object"}, "meta.value": {"string"}}


@pytest.fixture(scope="module")
def bad_workspace(tmp_path_factory):
    """(config path, input path, the input's lines, its ids): the input is a
    fixture run's token_count file, so every document carries a token
    count and a perplexity, which the sample subcommand needs."""
    root = tmp_path_factory.mktemp("bad_lines")
    config = build_workspace(root / "base", n_docs=120)
    pipeline.run_pipeline(load_config(config))
    lines = (root / "base" / "work" / "04_token_count.jsonl").read_bytes().splitlines(True)
    raw = yaml.safe_load(config.read_text("utf-8"))
    raw["input"] = str(root / "input.jsonl")
    raw["work_dir"] = str(root / "work")
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    ids = [json.loads(line)["id"] for line in lines]
    return config, root / "input.jsonl", lines, ids


def record(**fields) -> dict:
    """A good document record, a fluent text with a token count and a
    perplexity, with *fields* replacing its own."""
    rec = {"id": BAD_ID, "source": "web", "url": None,
           "text": "rīgas pilsēta ir liela un skaista",
           "meta": {"perplexity": "1.5e+02", "token_count": "12"}}
    rec.update(fields)
    return rec


def dumps(rec) -> bytes:
    return json.dumps(rec, ensure_ascii=False).encode("utf-8") + b"\n"


def wrong_type_line(field: str, kind: str) -> bytes:
    """A line whose *field* holds a value of JSON type *kind*."""
    value = JSON_VALUES[kind]
    if field == "":
        return dumps(value)
    rec = record()
    if field == "meta.value":
        rec["meta"] = {**rec["meta"], "k": value}
    else:
        rec[field] = value
    return dumps(rec)


SURROGATE_FIELDS = ["id", "source", "url", "text", "meta key", "meta value"]


def surrogate_line(field: str, code: int) -> bytes:
    """A line whose *field* holds the escape of the lone surrogate *code*."""
    mark = "\x00MARK\x00"
    if field.startswith("meta"):
        key, value = (mark, "v") if field == "meta key" else ("k", mark)
        rec = record(meta={"token_count": "12", key: value})
    else:
        rec = record(**{field: f"a{mark}b"})
    line = json.dumps(rec, ensure_ascii=False).replace(json.dumps(mark)[1:-1], f"\\u{code:04x}")
    return line.encode("utf-8") + b"\n"


NESTINGS = [(where, opener) for where in ("line", "meta", "text") for opener in "[{"]


def nested_line(where: str, opener: str, depth: int) -> bytes:
    """A line nested *depth* arrays or objects deep, as a whole or in the
    field *where*: past any recursion limit the parser runs under."""
    open_, close = ("[", "]") if opener == "[" else ('{"a": ', "}")
    nested = open_ * depth + "1" + close * depth
    if where == "line":
        return nested.encode() + b"\n"
    line = json.dumps(record(**{where: "NESTED"}), ensure_ascii=False)
    return line.replace('"NESTED"', nested).encode("utf-8") + b"\n"


def token_count_line(value: str) -> bytes:
    return dumps(record(meta={"token_count": value}))


def perplexity_line(value: str) -> bytes:
    return dumps(record(meta={"token_count": "12", "perplexity": value}))


def not_a_float(value: str) -> bool:
    try:
        return float(value) != float(value)
    except ValueError:
        return True


WRONG_TYPES = [(field, kind) for field in sorted(ACCEPTED)
               for kind in sorted(JSON_VALUES.keys() - ACCEPTED[field])]
DEEP = 100_000
BAD_TOKEN_COUNTS = ["", "abc", "-1", "1.5", " 1", "1 ", "+1", "1e3", "0x10", "١٢"]
BAD_PERPLEXITIES = ["", "abc", "nan", "-NaN", "1,5", "1.5.0"]
# a line of each class that is skipped, in each field: appended to every
# example's input
SKIPPED_LINES = [
    *(wrong_type_line(field, kind) for field, kind in WRONG_TYPES),
    *(surrogate_line(field, code) for field in SURROGATE_FIELDS for code in (0xD800, 0xDFFF)),
    *(nested_line(where, opener, DEEP) for where, opener in NESTINGS),
    *map(token_count_line, BAD_TOKEN_COUNTS),
]


def bad_line(ids):
    """(line, the class README gives it) of one bad line."""
    skipped = st.one_of(
        st.sampled_from(WRONG_TYPES).map(lambda fk: wrong_type_line(*fk)),
        st.builds(surrogate_line, st.sampled_from(SURROGATE_FIELDS), st.integers(0xD800, 0xDFFF)),
        st.sampled_from(NESTINGS).flatmap(lambda wo: st.integers(DEEP, 2 * DEEP).map(
            lambda depth: nested_line(*wo, depth))),
        st.one_of(st.sampled_from(BAD_TOKEN_COUNTS),
                  st.text(max_size=6).filter(lambda v: not re.fullmatch(r"[0-9]+", v)),
                  ).map(token_count_line),
    )
    good = dumps(record())
    invalid_utf8 = st.tuples(
        st.integers(0, len(good) - 1),
        st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xc0\xaf",
                         b"\xf8\x88\x80\x80\x80"]),
    ).map(lambda at_bad: good[:at_bad[0]] + at_bad[1] + good[at_bad[0]:])
    repeated_id = st.sampled_from(ids).map(lambda i: dumps(record(id=i)))
    perplexity = st.one_of(st.sampled_from(BAD_PERPLEXITIES),
                           st.text(max_size=6).filter(not_a_float)).map(perplexity_line)
    return st.one_of(
        skipped.map(lambda line: (line, SKIPPED)),
        st.one_of(invalid_utf8, repeated_id).map(lambda line: (line, INPUT_ERROR)),
        perplexity.map(lambda line: (line, NOT_SAMPLED)),
    )


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_bad_line_exits_as_documented(bad_workspace, command):
    config, input_path, lines, ids = bad_workspace
    root = input_path.parent

    @BAD_LINES
    @given(bad=bad_line(ids), at=st.integers(0, len(lines)))
    def check(bad, at):
        line, expected = bad
        shutil.rmtree(root / "work", ignore_errors=True)
        shutil.rmtree(root / "out", ignore_errors=True)
        (root / "out").mkdir()
        input_path.write_bytes(b"".join([*lines[:at], line, *lines[at:], *SKIPPED_LINES]))
        if command in ("run", "resume"):
            argv = ["run", "--config", str(config)]
            if command == "resume":
                with pytest.MonkeyPatch.context() as m:
                    crash_after(m, load_config(config), CRASH_AFTER)
                    assert run_cli(argv)[0] == EXIT_STAGE
                argv.append("--resume")
        else:
            out = root / "out" / ("packed.bin" if command == "pack" else "out.jsonl")
            argv = [command.replace("_", "-"), "--config", str(config),
                    "--input", str(input_path), "--output", str(out)]
        rc, err = run_cli(argv)

        assert "Traceback" not in err
        assert not list(root.rglob("*.tmp"))
        if expected == INPUT_ERROR:
            # the reader stops before it reports the lines it skipped
            assert rc == EXIT_STAGE and err.count("\n") == 1
            try:
                repeated = json.loads(line.decode("utf-8"))["id"]
            except UnicodeDecodeError:
                assert err.startswith(f"input error: {input_path}:{at + 1}: invalid UTF-8: ")
            else:
                assert err == f"input error: duplicate document id {repeated!r} in {input_path}\n"
            return
        # a resumed run reads the stage file, not the input
        if command != "resume":
            n = len(SKIPPED_LINES) + (expected == SKIPPED)
            skipped = f"skipped {n} malformed input lines in {input_path}\n"
            assert err.startswith(skipped)
            err = err[len(skipped):]
        if expected == NOT_SAMPLED and command == "sample":
            assert rc == EXIT_STAGE
            assert err == (f"stage failure: stage sample failed: document {BAD_ID!r} has "
                           f"meta.perplexity {json.loads(line)['meta']['perplexity']!r}, "
                           "not a number\n")
        else:
            assert rc == EXIT_OK, err
            assert all(re.match(r"\[\w+\] in=|total wall time: ", s) for s in err.splitlines())

    check()
