"""Property suite for the line protocol: :meth:`ZServeServer.dispatch`.

Whatever text a client sends, the server owes it exactly one reply
line and must survive: ``dispatch`` may never raise (a raise kills the
connection's handler thread) and may never put a newline in a reply
(the client would read the rest as the answer to its next request).
The inputs are ``str`` as the handler decodes them (UTF-8 with
replacement, so never a lone surrogate): empty and whitespace-only
lines, Unicode whitespace between tokens, wrong arity, unknown verbs
and long tokens.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.serve.server import ZServeServer  # noqa: E402
from repro.serve.service import ServeConfig, ZServeCache  # noqa: E402

#: verb -> token count of its one well-formed request
ARITY = {"GET": 2, "PUT": 3, "DEL": 2, "STATS": 1, "PING": 1}

#: separators ``str.split`` cuts at, ASCII and Unicode
WHITESPACE = " \t\r\n\x0b\x0c\x1c\x1f\x85\xa0\u2000\u2028\u2029\u3000"

tokens = st.one_of(
    st.sampled_from(sorted(ARITY) + ["get", "Put", "del", "BOGUS", "HIT"]),
    st.text(min_size=1, max_size=12).filter(lambda t: not t.isspace()),
    st.integers(min_value=1000, max_value=70_000).map(lambda n: "x" * n),
)
separators = st.text(alphabet=WHITESPACE, min_size=1, max_size=3)


@st.composite
def lines(draw):
    """Tokens joined by runs of whitespace, with optional padding."""
    parts = draw(st.lists(tokens, max_size=5))
    text = draw(st.text(alphabet=WHITESPACE, max_size=2))
    for part in parts:
        text += part + draw(separators)
    return text


def _server():
    srv = ZServeServer.__new__(ZServeServer)  # no socket needed
    srv.cache = ZServeCache(ServeConfig(num_shards=2, lines_per_way=16))
    return srv


SERVER = _server()
#: whitespace-free tokens: what a round trip can carry
words = st.text(min_size=1, max_size=40).filter(
    lambda t: not any(c.isspace() for c in t)
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(lines(), st.text(max_size=80)))
def test_every_line_gets_exactly_one_reply_line(line):
    reply = SERVER.dispatch(line)
    assert isinstance(reply, str)
    assert "\n" not in reply
    assert len(reply.splitlines()) == 1
    parts = line.split()
    well_formed = bool(parts) and ARITY.get(parts[0].upper()) == len(parts)
    assert reply.startswith("ERR ") != well_formed


@settings(max_examples=200, deadline=None)
@given(words, words)
def test_put_then_get_round_trips(key, value):
    assert SERVER.dispatch(f"PUT {key} {value}\n") == "OK"
    assert SERVER.dispatch(f"GET {key}\n") == f"HIT {value}"
    SERVER.cache.check_consistency()
