"""Bad input ends in a typed ``ReproError``, never a crash or a stray file:
hypothesis fuzzes BPT2 headers and indexes, spec JSON and ``POST /v1/runs``
bodies (answered 2xx, or 400/429 with ``error/v1``); its finds are pinned.
"""

import http.client
import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.serve import AnalysisServer, ServerThread
from repro.spec import EngineOptions, RunSpec, spec_from_kwargs
from repro.trace import stream
from repro.trace.stream import TraceFormatError, TraceStream, write_trace

from conftest import trace_from_steps

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


@pytest.mark.parametrize("value", ["abc", "-5", "1_0", "12x"])
def test_malformed_content_length_is_a_400(paused_server, capfd, value):
    """A request head whose Content-Length is no integer gets an
    ``error/v1`` reply naming the header, not a dropped connection."""
    thread, _root = paused_server
    with socket.create_connection(
        (thread.server.host, thread.server.port), timeout=30
    ) as connection:
        connection.sendall(
            f"POST /v1/runs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode()
        )
        reply = b""
        while chunk := connection.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply
    payload = json.loads(body)
    assert payload["schema"] == "error/v1"
    assert payload["error"] == "http.bad_request"
    assert "Content-Length" in payload["message"] and value in payload["message"]
    assert "Traceback" not in capfd.readouterr().err
