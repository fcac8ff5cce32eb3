"""Bad input ends in a typed ``ReproError``, never a crash or a stray file:
hypothesis fuzzes BPT2 headers and indexes, spec JSON, ``POST /v1/runs``
bodies (answered 2xx, or 400/429 with ``error/v1``), raw request heads
over a socket, journal lines, result-cache entries, raw, re-encoded or
with a flipped bit (loaded correctly or quarantined) and text, BPT1 and
binary traces through ``ingest_file``; its finds are pinned.
"""

import gc
import http.client
import json
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import serve
from repro.analysis.cache import ResultCache
from repro.correlation.tagging import collect_correlation_data
from repro.errors import IngestError, ReproError
from repro.resilience.journal import RunJournal
from repro.serve import AnalysisServer, ServerThread
from repro.spec import EngineOptions, RunSpec, spec_from_kwargs
from repro.trace import stream
from repro.trace.ingest import ingest_file
from repro.trace.stream import TraceFormatError, TraceStream, write_trace
from repro.workloads.suite import load_benchmark

from conftest import rewrite_cache_entry, scoped_cache_events, trace_from_steps
from test_resilience_journal import UNDECODABLE, FakeResult

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(fields=st.dictionaries(st.integers(0, 6), st.one_of(
    st.integers(0, 2**64 - 1), st.integers(0, 512))), cut=st.integers(0, 4096))
def test_forged_bpt2_header_and_index(tmp_path_factory, fields, cut):
    # Three chunks of 8: header fields 0-3, then index entries 4-6.
    directory = tmp_path_factory.mktemp("bpt2")
    target = directory / "forged.bpt"
    write_trace(trace_from_steps([(4 * (i % 5), 9, i % 3 == 0) for i in range(20)]),
                target, chunk_branches=8)
    raw = bytearray(target.read_bytes())
    index_offset = int.from_bytes(raw[32:40], "little")
    for field, value in fields.items():
        start = 8 + 8 * field if field < 4 else index_offset + 8 * (field - 4)
        raw[start:start + 8] = value.to_bytes(8, "little")
    target.write_bytes(bytes(raw[:cut]))
    try:
        opened = TraceStream.open(target)
        opened.whole(), opened.digest()
    except ReproError:
        pass
    assert [path.name for path in directory.iterdir()] == ["forged.bpt"]


def test_forged_branch_count_lists_no_spans(tmp_path, monkeypatch):
    """2**40 branches in windows of 8 listed a span per claimed chunk."""
    listed = stream.chunk_spans
    monkeypatch.setattr(stream, "chunk_spans", lambda n, size: (
        pytest.fail(f"listed spans for n={n}") if n > 2**20 else listed(n, size)))
    target = tmp_path / "forged.bpt"
    header = [2**40, 8, 1, 40, 0]
    target.write_bytes(b"BPT2" + bytes(4) + b"".join(v.to_bytes(8, "little") for v in header))
    with pytest.raises(TraceFormatError, match="chunks indexed"):
        TraceStream.open(target)


LEAVES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=8),
    st.integers(2**1024, 2**1100),  # past the largest float
)
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=8), inner, max_size=4),
), max_leaves=12)
#: Where a fuzzed value may replace part of a valid spec document.
SPEC_PATHS = [[]] + [path.split("/") for path in """experiments workload config engine
    sweep workload/kind workload/max_length workload/seed workload/benchmarks workload/mix
    workload/traces workload/mix/noise workload/mix/loop config/collection_window
    config/selective_window config/gshare_history_bits engine/jobs engine/cache
    engine/retries engine/task_timeout engine/chunk_branches sweep/axes sweep/mode
    sweep/axes/mix.noise""".split()]


@st.composite
def spec_documents(draw):
    """A valid spec document with one or two parts replaced."""
    root = {"spec": spec_from_kwargs(["fig9"], max_length=300).to_dict()}
    root["spec"]["sweep"] = {"axes": {"gshare_history_bits": [8, 12]}}
    for path in draw(st.lists(st.sampled_from(SPEC_PATHS), min_size=1, max_size=2)):
        node, key = root, "spec"
        for part in path:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node, key = node[key], part
        node[key] = draw(st.one_of(LEAVES, VALUES))
    return json.dumps(root["spec"])


SPEC_TEXTS = st.one_of(
    spec_documents(), VALUES.map(json.dumps), st.text(max_size=40),
    # json's own limits: nesting depth and integer length.
    st.integers(1, 100_000).map(lambda k: "[" * k),
    st.integers(1, 100_000).map(lambda k: '{"workload": {"seed": ' + "7" * k + "}}"),
)


@settings(FUZZ, max_examples=200)
@given(text=st.one_of(spec_documents(), SPEC_TEXTS))
def test_only_spec_errors_escape_from_json(text):
    try:
        RunSpec.from_json(text)
    except ReproError:
        pass


@pytest.fixture(scope="module")
def paused_server(tmp_path_factory):
    """A server that admits runs but never executes them."""
    root = tmp_path_factory.mktemp("fuzz-serve")
    server = AnalysisServer(EngineOptions(jobs=1, cache_dir=str(root / "cache")),
                            autostart=False, drain_grace=0.0,
                            max_inflight=10**6, max_queue=10**6)
    thread = ServerThread(server)
    thread.start()
    yield thread, root
    thread.call_soon(server.drain)
    thread.stop()


def _post(paused_server, body: bytes):
    thread, root = paused_server
    before = sorted(root.iterdir())
    connection = http.client.HTTPConnection(thread.server.host, thread.server.port, timeout=30)
    try:
        connection.request("POST", "/v1/runs", body=body)
        response = connection.getresponse()
        status, payload = response.status, json.loads(response.read())
    finally:
        connection.close()
    assert sorted(root.iterdir()) == before
    assert status in (200, 201) or (status in (400, 429) and payload["schema"] == "error/v1")
    return status, payload


@FUZZ
@given(body=st.one_of(SPEC_TEXTS.map(str.encode), st.binary(max_size=64)))
def test_every_run_body_gets_an_answer(paused_server, body):
    _post(paused_server, body)


PINNED = {
    "deep-nesting": "[" * 100_000,
    "long-int": '{"workload": {"seed": ' + "7" * 5000 + "}}",
    "mix-weight-overflow": '{"workload": {"mix": {"noise": 1' + "0" * 400 + "}}}",
}


@pytest.mark.parametrize("text", PINNED.values(), ids=PINNED)
def test_pinned_example_is_a_spec_error(paused_server, text):
    with pytest.raises(ReproError) as excinfo:
        RunSpec.from_json(text)
    assert excinfo.value.code.startswith("spec.")
    status, payload = _post(paused_server, text.encode())
    assert status == 400 and payload["error"].startswith("spec."), payload


def _exchange(paused_server, raw: bytes) -> bytes:
    """Send ``raw``, close the write side, and read the whole reply."""
    thread, _root = paused_server
    with socket.create_connection(
        (thread.server.host, thread.server.port), timeout=30
    ) as connection:
        connection.sendall(raw)
        connection.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := connection.recv(65536):
            reply += chunk
    return reply


def _bad_request(paused_server, raw: bytes) -> str:
    """The message of the ``error/v1`` 400 that ``raw`` gets."""
    reply = _exchange(paused_server, raw)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply[:200]
    payload = json.loads(body)
    assert payload["schema"] == "error/v1"
    assert payload["error"] == "http.bad_request"
    return payload["message"]


@pytest.mark.parametrize("value", ["abc", "-5", "1_0", "12x"])
def test_malformed_content_length_is_a_400(paused_server, capfd, value):
    """A request head whose Content-Length is no integer gets an
    ``error/v1`` reply naming the header, not a dropped connection."""
    message = _bad_request(
        paused_server,
        f"POST /v1/runs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode(),
    )
    assert "Content-Length" in message and value in message
    assert "Traceback" not in capfd.readouterr().err


LONG = b"a" * 70_000  # past the server's 64 KiB line limit

#: Request heads that got an empty reply and an asyncio traceback.
BAD_HEADS = {
    "long-request-line": (b"GET /" + LONG + b" HTTP/1.1\r\n\r\n", "request line"),
    "long-header-line": (
        b"GET /v1/healthz HTTP/1.1\r\nX-Long: " + LONG + b"\r\n\r\n", "header line"),
    "long-head": (
        b"GET /v1/healthz HTTP/1.1\r\n" + b"X-A: " + LONG[:40_000] + b"\r\n"
        + b"X-B: " + LONG[:40_000] + b"\r\n\r\n", "request headers"),
    "long-content-length": (
        b"POST /v1/runs HTTP/1.1\r\nContent-Length: " + b"7" * 5000 + b"\r\n\r\n",
        "Content-Length"),
    "body-too-large": (
        b"POST /v1/runs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n", "Content-Length"),
    "not-http": (b"hello\r\n\r\n", "request line"),
}


@pytest.mark.parametrize("raw, names", BAD_HEADS.values(), ids=BAD_HEADS)
def test_bad_request_head_is_a_400(paused_server, capfd, raw, names):
    assert names in _bad_request(paused_server, raw)
    assert "Traceback" not in capfd.readouterr().err


REQUEST_LINES = st.one_of(st.binary(max_size=48), st.sampled_from([
    b"GET /v1/healthz HTTP/1.1", b"GET /v1/metrics HTTP/1.1", b"POST /v1/runs HTTP/1.1",
    b"GET /v1/runs/none HTTP/1.1", b"PUT / HTTP/1.1",
]))
HEADER_LINES = st.one_of(
    st.binary(max_size=48),
    st.sampled_from([b"Content-Length: 0", b"X-Repro-Client: fuzz", b"Host: fuzz"]),
    st.text("0123456789-_ x", max_size=12).map(lambda v: b"Content-Length: " + v.encode()),
    st.integers(0, 6000).map(lambda k: b"Content-Length: " + b"9" * k),
)


@settings(FUZZ, max_examples=60)
@given(line=REQUEST_LINES, headers=st.lists(HEADER_LINES, max_size=4),
       long=st.sampled_from([None, None, "line", "header"]))
def test_every_request_head_gets_an_answer(paused_server, capfd, line, headers, long):
    if long == "line":
        line += LONG
    elif long == "header":
        headers = headers + [b"X-Long: " + LONG]
    raw = b"".join(part + b"\r\n" for part in [line, *headers]) + b"\r\n"
    reply = _exchange(paused_server, raw)
    # No body is sent, so a head that declares one may end unanswered.
    if b"content-length" not in raw.lower():
        assert reply
    if reply:
        head, _, body = reply.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        assert status in (200, 400, 404), reply[:200]
        if status >= 400:
            assert json.loads(body)["schema"] == "error/v1"
    assert "Traceback" not in capfd.readouterr().err


@FUZZ
@given(garbage=st.lists(st.tuples(st.integers(0, 3), st.one_of(
    st.binary(max_size=64), st.sampled_from(list(UNDECODABLE.values())))), max_size=6))
def test_journal_loads_exactly_its_valid_lines(tmp_path_factory, garbage):
    path = tmp_path_factory.mktemp("journal") / "j.jsonl"
    with RunJournal(path) as journal:
        for value, experiment in enumerate(("table1", "fig4", "fig5")):
            journal.record(experiment, "k", FakeResult(value))
    expected = RunJournal(path).load()
    lines = path.read_bytes().splitlines(keepends=True)
    for slot, chunk in garbage:
        lines.insert(slot, chunk + b"\n")
    path.write_bytes(b"".join(lines))
    assert RunJournal(path).load() == expected


def test_stalled_request_body_is_a_408(paused_server, capfd, monkeypatch):
    """A head that declares a body it never sends got no reply at all."""
    monkeypatch.setattr(serve, "_READ_TIMEOUT", 0.2)
    thread, _root = paused_server
    with socket.create_connection(
        (thread.server.host, thread.server.port), timeout=30
    ) as connection:
        connection.sendall(b"POST /v1/runs HTTP/1.1\r\nContent-Length: 10\r\n\r\n")
        reply = b""
        while chunk := connection.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408 "), reply[:200]
    payload = json.loads(body)
    assert payload["schema"] == "error/v1"
    assert payload["error"] == "http.request_timeout"
    assert "request body" in payload["message"]
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_stop_with_an_idle_connection_is_quiet(capfd, caplog):
    """Stopping left the idle connection's handler pending on a closed
    loop: 'Task was destroyed' and 'Event loop is closed'."""
    server = AnalysisServer(EngineOptions(jobs=1, cache=False),
                            autostart=False, drain_grace=0.0)
    thread = ServerThread(server)
    thread.start()
    with socket.create_connection((server.host, server.port), timeout=10) as idle:
        idle.sendall(b"GET /v1/healthz HTTP/1.1\r\n")
        # Connections are accepted in order: once a later one is
        # answered, the idle one's handler is waiting on its head.
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        connection.request("GET", "/v1/healthz")
        assert connection.getresponse().status == 200
        connection.close()
        thread.stop()
        assert idle.recv(65536) == b""  # closed without an answer
    gc.collect()
    assert not thread._thread.is_alive()
    assert "Task was destroyed" not in caplog.text
    assert capfd.readouterr().err == ""


@pytest.fixture(scope="module")
def cache_references():
    """A 301-branch trace, a bitmap over it and its correlation table."""
    trace = load_benchmark("compress", length=301, run_seed=5)
    bitmap = np.random.default_rng(0).random(len(trace)) < 0.5
    return {"trace": trace, "bitmap": bitmap, "corr": collect_correlation_data(trace, 8)}


def _cache_entry(cache, kind, references, store):
    """Store (``store``) or load the reference entry of ``kind``; the
    stored entry's path, or the loaded value."""
    trace = references["trace"]
    if kind == "bitmap":
        if store:
            cache.store_bitmap(trace.digest(), "loop|v1", references["bitmap"])
            return cache.entry_path("bitmap", cache.bitmap_key(trace.digest(), "loop|v1"))
        return cache.load_bitmap(trace.digest(), "loop|v1", len(trace))
    if kind == "corr":
        if store:
            cache.store_correlation(trace.digest(), references["corr"])
            return cache.entry_path("corr", cache.correlation_key(trace.digest(), 8))
        return cache.load_correlation(trace.digest(), 8, len(trace))
    if store:
        cache.store_trace("compress", len(trace), 5, trace)
        return cache.entry_path("trace", cache.trace_key("compress", len(trace), 5))
    return cache.load_trace("compress", len(trace), 5)


def _same_value(kind, loaded, reference) -> bool:
    if kind == "bitmap":
        return loaded.dtype == bool and np.array_equal(loaded, reference)
    if kind == "trace":
        pairs = [(loaded.pc, reference.pc), (loaded.target, reference.target),
                 (loaded.taken, reference.taken)]
    else:
        pairs = [(value, reference.columns()[name]) for name, value in loaded.columns().items()]

    def kind_of(column):  # an integer column may come back wider, not as another kind
        kind = np.asarray(column).dtype.kind
        return "i" if kind in "iu" else kind

    return all(kind_of(a) == kind_of(b) and np.array_equal(a, b) for a, b in pairs)


def _assert_correct_or_quarantined(root, path, kind, references) -> None:
    """A fresh cache on ``root`` loads the entry of ``kind`` at ``path``
    as its reference value, or misses and quarantines it."""
    with scoped_cache_events() as events:
        loaded = _cache_entry(ResultCache(root), kind, references, store=False)
    if loaded is None:
        assert events.quarantined == 1 and not path.exists()
    else:
        assert events.quarantined == 0
        assert _same_value(kind, loaded, references[kind])


def _mutate(fields: dict, op: str, which: int, value: int) -> None:
    """Apply one structural change to an array of a cache entry."""
    if op == "add" or not fields:
        fields[f"extra{which}"] = np.int64(value)
        return
    name = sorted(fields)[which % len(fields)]
    flat = fields[name].ravel()
    if op == "drop":
        del fields[name]
    elif op == "set":  # forge a scalar, or replace an array with one
        fields[name] = np.int64(value)
    elif op == "truncate":
        fields[name] = flat[: value % (flat.size + 1)]
    elif op == "extend":
        fields[name] = np.concatenate([flat, np.zeros(value % 9 + 1, flat.dtype)])
    elif op == "reshape":
        fields[name] = flat.reshape(-1, 1) if value % 2 else flat.reshape(1, -1)
    else:  # widen: same values, another dtype
        fields[name] = flat.astype(np.float64 if value % 2 else np.int64).reshape(
            fields[name].shape)


MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["add", "drop", "set", "truncate", "extend", "reshape", "widen"]),
    st.integers(0, 31), st.integers(-2**40, 2**40)), min_size=1, max_size=2)


@FUZZ
@given(kind=st.sampled_from(["bitmap", "corr", "trace"]),
       raw=st.one_of(st.none(), st.binary(max_size=256)), mutations=MUTATIONS)
def test_cache_entry_loads_correct_or_quarantined(
        tmp_path_factory, cache_references, kind, raw, mutations):
    root = tmp_path_factory.mktemp("cache")
    path = _cache_entry(ResultCache(root), kind, cache_references, store=True)
    if raw is not None:
        path.write_bytes(raw)
    else:
        def mutate(fields):
            for mutation in mutations:
                _mutate(fields, *mutation)

        rewrite_cache_entry(path, mutate)
    _assert_correct_or_quarantined(root, path, kind, cache_references)


@FUZZ
@given(kind=st.sampled_from(["bitmap", "corr", "trace"]),
       offset=st.integers(0, 2**20), bit=st.integers(0, 7))
def test_flipped_bit_never_loads_a_wrong_value(
        tmp_path_factory, cache_references, kind, offset, bit):
    root = tmp_path_factory.mktemp("cache")
    path = _cache_entry(ResultCache(root), kind, cache_references, store=True)
    raw = bytearray(path.read_bytes())
    raw[offset % len(raw)] ^= 1 << bit
    path.write_bytes(bytes(raw))
    _assert_correct_or_quarantined(root, path, kind, cache_references)


#: Entries that loaded as a wrong value (or, on a lab, raised a raw
#: ValueError) before their shape was checked against the request.
FORGED_ENTRIES = {
    "bitmap-length": ("bitmap", "length", lambda field: field + 5),
    "bitmap-short-packed": ("bitmap", "packed", lambda field: field[:10]),
    "trace-short-taken": ("trace", "taken", lambda field: field[:10]),
    "trace-2d-pc": ("trace", "pc", lambda field: field.reshape(-1, 1)),
    "corr-window": ("corr", "window", lambda field: field * 2),
    "corr-trace-length": ("corr", "trace_length", lambda field: field + 1),
    "corr-float-column": ("corr", "entry_depth", lambda field: field.astype(float)),
}


@pytest.mark.parametrize("kind, name, forge", FORGED_ENTRIES.values(), ids=FORGED_ENTRIES)
def test_forged_cache_entry_is_quarantined(
    tmp_path, cache_references, kind, name, forge, cache_events
):
    path = _cache_entry(ResultCache(tmp_path), kind, cache_references, store=True)
    rewrite_cache_entry(path, lambda fields: fields.update({name: forge(fields[name])}))
    cache = ResultCache(tmp_path)
    assert _cache_entry(cache, kind, cache_references, store=False) is None
    assert cache_events.quarantined == 1 and not path.exists()


ADDRESSES = st.one_of(st.integers(0, 2**64 - 1).map(str), st.integers(0, 2**64 - 1).map(hex))
BAD_ADDRESSES = st.one_of(
    st.integers(2**64 - 4, 2**64 + 8).map(str), st.integers(-9, -1).map(str),
    st.just("9" * 5000), st.text("0123456789xabcdefg_-", max_size=6))
OUTCOMES = st.sampled_from(["T", "n", "1", "0", "taken", "not-taken"])
TEXT_LINES = st.one_of(
    st.tuples(ADDRESSES, OUTCOMES).map(" ".join),
    st.tuples(ADDRESSES, ADDRESSES, OUTCOMES).map(" ".join),
    st.one_of(  # one bad field, a comment, or anything
        st.tuples(st.one_of(ADDRESSES, BAD_ADDRESSES), BAD_ADDRESSES, OUTCOMES).map(" ".join),
        st.tuples(ADDRESSES, st.sampled_from(["x", "2", "TT"])).map(" ".join),
        st.sampled_from(["", "# comment", "   "]), st.text(max_size=12)))


@st.composite
def bpt1_files(draw):
    """A BPT1 file: a forged or true count, then columns cut anywhere."""
    count = draw(st.integers(0, 40))
    declared = draw(st.one_of(st.just(count), st.integers(0, 2**64 - 1)))
    body = draw(st.binary(min_size=16 * count + (count + 7) // 8,
                          max_size=16 * count + (count + 7) // 8 + 8))
    raw = b"BPT1" + declared.to_bytes(8, "little") + body
    return raw[:draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


@FUZZ
@given(text=st.lists(TEXT_LINES, max_size=6).map("\n".join),
       bpt1=bpt1_files(), use_text=st.booleans(), sniff=st.booleans())
def test_ingest_raises_only_ingest_errors(tmp_path_factory, text, bpt1, use_text, sniff):
    directory = tmp_path_factory.mktemp("ingest")
    source = directory / ("trace.txt" if use_text else "trace.bpt1")
    if use_text:
        source.write_text(text, encoding="utf-8", errors="surrogatepass")
    else:
        source.write_bytes(bpt1)
    declared = None if sniff else ("text" if use_text else "bpt1")
    try:
        result = ingest_file(source, format=declared)
    except IngestError:
        assert [path.name for path in directory.iterdir()] == [source.name]
        return
    assert sorted(path.name for path in directory.iterdir()) == sorted(
        [source.name, source.name + ".bpt"])
    assert result.branches == len(TraceStream.open(result.path)) > 0
