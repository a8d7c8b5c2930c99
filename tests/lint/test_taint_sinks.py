"""One direct source→sink flow per sink kind: rule, line and message.

Each case is a one-function module under ``repro/core`` whose
query-text source feeds one sink of the shared registry
(:mod:`repro.obs.sinks`) on line 2. The linter must report exactly one
finding there, with the rule and message users see (and baselines
fingerprint), and no witness: a direct flow needs none.
"""

import sys
import textwrap

import pytest

from repro.lint import run_lint

pytestmark = pytest.mark.lint

SIGNATURE = ("def leak(network, dst, wire, logger, span, tracer, registry, "
             "record, query):\n")

#: (case id, the sink line, rule, message)
CASES = [
    ("send", "network.send(dst, {'q': query})",
     "taint-wire", "query text flows into wire egress .send()"),
    ("wire-encode", "return wire.encode({'q': query})",
     "taint-wire", "query text flows into wire.encode()"),
    ("print", "print('got', record.text)",
     "taint-print", "query text flows into print()"),
    ("log", "logger.info('q=%s', query)",
     "taint-log", "query text flows into logger.info()"),
    ("raise", "raise ValueError(f'bad query {query}')",
     "taint-exception", "query text flows into a raised exception message"),
    ("set-attribute", "span.set_attribute('bucket', query)",
     "taint-telemetry", "query text flows into set_attribute() value"),
    ("set-attributes", "span.set_attributes({'bucket': query.lower()})",
     "taint-telemetry",
     "query text flows into set_attributes() attribute value"),
    ("start-span", "tracer.start_span('leg', attributes={'b': query})",
     "taint-telemetry", "query text flows into start_span() attribute value"),
    ("metric-label", "registry.counter('hits', label=query)",
     "taint-telemetry", "query text flows into counter() label value"),
]


def lint_module(tmp_path, relpath, source):
    root = tmp_path / "src"
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint(root=root)


@pytest.mark.parametrize("line,rule,message",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_direct_flow_reports_the_sink_rule(tmp_path, line, rule, message):
    findings = lint_module(tmp_path, "repro/core/flow.py",
                           SIGNATURE + f"    {line}\n")
    assert [(f.path, f.line, f.rule, f.message, f.witness)
            for f in findings] == [
        ("repro/core/flow.py", 2, rule, message, ())]


#: (case id, module source, the sink line, rule, message): a direct flow
#: into a sink nested in each compound statement kind
NESTED_CASES = [
    ("async-with", "async def leak(lock, query):\n"
                   "    async with lock:\n"
                   "        print(query)\n",
     3, "taint-print", "query text flows into print()"),
    ("async-for", "async def leak(logger, rows, query):\n"
                  "    async for _row in rows:\n"
                  "        logger.info('q=%s', query)\n",
     3, "taint-log", "query text flows into logger.info()"),
    ("match", "def leak(logger, cmd, query):\n"
              "    match cmd:\n"
              "        case _:\n"
              "            logger.info('q=%s', query)\n",
     4, "taint-log", "query text flows into logger.info()"),
    ("try-star", "def leak(query):\n"
                 "    try:\n"
                 "        pass\n"
                 "    except* ValueError:\n"
                 "        print(query)\n",
     5, "taint-print", "query text flows into print()"),
]


@pytest.mark.parametrize("source,line,rule,message",
                         [case[1:] for case in NESTED_CASES],
                         ids=[case[0] for case in NESTED_CASES])
def test_direct_flow_inside_compound_statement(tmp_path, source, line,
                                               rule, message):
    if "except*" in source and sys.version_info < (3, 11):
        pytest.skip("except* needs Python 3.11")
    if "    match " in source and sys.version_info < (3, 10):
        pytest.skip("match needs Python 3.10")
    findings = lint_module(tmp_path, "repro/core/flow.py", source)
    assert [(f.path, f.line, f.rule, f.message) for f in findings] == [
        ("repro/core/flow.py", line, rule, message)]


MATCH_CAPTURES = """\
def leak(query):
    match query:
        case str() as q:
            print(q)
        case [*rest]:
            print(rest)
        case {**kw}:
            print(kw)
"""


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="match needs Python 3.10")
def test_match_captures_carry_the_subject(tmp_path):
    findings = lint_module(tmp_path, "repro/core/flow.py", MATCH_CAPTURES)
    assert [(f.line, f.rule) for f in findings] == [
        (4, "taint-print"), (6, "taint-print"), (8, "taint-print")]


SPAN_KEY_LEAK = """\
def record(span, query):
    span.set_attribute("real", query)
"""


def test_forbidden_key_fires_where_taint_is_exempt(tmp_path):
    # the engine model legitimately sees plaintext, so taint is off in
    # repro.searchengine — but telemetry-key hygiene still applies
    findings = lint_module(tmp_path, "repro/searchengine/leaky.py",
                           SPAN_KEY_LEAK)
    assert [(f.line, f.rule, f.message) for f in findings] == [
        (2, "span-forbidden-key",
         "set_attribute() uses forbidden attribute key 'real'")]


def test_the_same_leak_outside_the_exempt_package_also_taints(tmp_path):
    findings = lint_module(tmp_path, "repro/core/leaky.py", SPAN_KEY_LEAK)
    assert sorted(f.rule for f in findings) == [
        "span-forbidden-key", "taint-telemetry"]
