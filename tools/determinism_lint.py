#!/usr/bin/env python3
"""Determinism lint for the report-emitting path.

The repo's headline guarantee is that SCENARIO_*.json reports are
byte-identical for a fixed (spec, seed) across runs, thread counts and
machines (the wall_ms resources block is the single audited exception).
That guarantee dies quietly: one `for (auto& kv : some_unordered_map)`
feeding a metric, one pointer used as a sort key, one wall-clock read
outside the resources block, and reports still *look* right while
drifting between runs.

This lint scans the files on the report-emitting path for banned
non-determinism sources:

  unordered-container   declaring std::unordered_map / std::unordered_set
                        (iteration order is hash-seed and libc++/libstdc++
                        dependent; on the report path even *declaring* one
                        needs an audit that no iteration feeds output)
  pointer-keyed-order   std::map / std::set keyed by a raw pointer, or
                        sorting by pointer value (ASLR-dependent order)
  wall-clock            std::chrono::{system,steady,high_resolution}_clock,
                        time(), gettimeofday, clock_gettime (wall time is
                        allowed only in the audited wall_ms measurement)
  unseeded-rand         rand(), srand(), std::random_device (randomness
                        must come from the seeded util::Rng streams)
  thread-id             std::this_thread::get_id, pthread_self (worker
                        identity must never influence report bytes)
  address-leak          printing a pointer with %p (ASLR in the output)

Findings are suppressed by tools/determinism_allowlist.txt entries of the
form `rule-id<space>path<space>#<space>justification`; each entry must
still match at least one finding, so stale allowlist lines fail the lint
too (the audit trail cannot rot silently).

Exit status: 0 clean, 1 findings or stale allowlist entries, 2 usage.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Files whose bytes (transitively) become SCENARIO_*.json / BENCH_*.json
# (and, since the observability layer, TIMESERIES_*/TRACE_*.json).
SCAN_GLOBS = [
    "src/scenario/*.h",
    "src/scenario/*.cpp",
    # The sharded event engine, the network fabric and the harness feed
    # the report directly since the parallel-world work: event stamps,
    # per-lane stats, mailbox merges and per-lane delivery logs all
    # shape report bytes.
    "src/sim/scheduler.h",
    "src/sim/scheduler.cpp",
    "src/sim/network.h",
    "src/sim/network.cpp",
    "src/waku/harness.h",
    "src/waku/harness.cpp",
    # The crypto hot path: the field kernels, the optimised Poseidon
    # permutation, Merkle appends and the prepared verifier all sit
    # upstream of root/nullifier/verdict bytes in the report, and each
    # promises bit-identity with its reference in the test tree.
    "src/field/*.h",
    "src/field/*.cpp",
    "src/hash/poseidon.h",
    "src/hash/poseidon.cpp",
    "src/merkle/*.h",
    "src/merkle/*.cpp",
    "src/zksnark/*.h",
    "src/zksnark/*.cpp",
    # Per-hop RLN validation: the prover/verifier, external nullifiers
    # (with their per-thread memo), nullifier maps, H(m) and the relay's
    # validator decide every verdict, nullifier record and slash the
    # report counts.
    "src/rln/*.h",
    "src/rln/*.cpp",
    "src/hash/sha256.h",
    "src/hash/sha256.cpp",
    "src/waku/rln_relay.h",
    "src/waku/rln_relay.cpp",
    "src/obs/*.h",
    "src/obs/*.cpp",
    "src/util/json.h",
    "src/util/json.cpp",
    "src/util/stats.h",
    "src/util/stats.cpp",
    "bench/harness.h",
    "examples/scenario_runner.cpp",
]

RULES = [
    (
        "unordered-container",
        re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b"),
        "unordered container on the report path (iteration order is not deterministic)",
    ),
    (
        "pointer-keyed-order",
        re.compile(r"\bstd::(?:map|set)<\s*[^,<>]*\*"),
        "ordered container keyed by raw pointer (ASLR-dependent order)",
    ),
    (
        "wall-clock",
        re.compile(
            r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
            r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
        ),
        "wall-clock read outside the audited wall_ms resources block",
    ),
    (
        "unseeded-rand",
        re.compile(r"(?<![\w:])(?:s?rand)\s*\(|\bstd::random_device\b"),
        "unseeded randomness (use the seeded util::Rng streams)",
    ),
    (
        "thread-id",
        re.compile(r"std::this_thread::get_id|\bpthread_self\s*\("),
        "thread identity leaking toward report bytes",
    ),
    (
        "address-leak",
        re.compile(r'%p'),
        "pointer value formatted into output (ASLR in the report)",
    ),
]

LINE_COMMENT = re.compile(r"//.*$")


def parse_allowlist(path: Path):
    """Yields (rule_id, file_path, justification, line_no)."""
    entries = []
    if not path.exists():
        return entries
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(r"^(\S+)\s+(\S+)\s+#\s*(.+)$", line)
        if m is None:
            print(
                f"determinism_lint: malformed allowlist line {line_no}: {raw!r}\n"
                "  expected: <rule-id> <path> # <justification>",
                file=sys.stderr,
            )
            sys.exit(2)
        entries.append((m.group(1), m.group(2), m.group(3), line_no))
    return entries


def scan_file(repo: Path, rel: str):
    """Yields (rule_id, rel_path, line_no, line_text, description)."""
    text = (repo / rel).read_text()
    for line_no, line in enumerate(text.splitlines(), start=1):
        code = LINE_COMMENT.sub("", line)
        for rule_id, pattern, description in RULES:
            if pattern.search(code):
                yield rule_id, rel, line_no, line.strip(), description


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the tree containing this script)")
    parser.add_argument("--allowlist", type=Path, default=None,
                        help="allowlist file (default: tools/determinism_allowlist.txt)")
    args = parser.parse_args()

    repo = args.repo.resolve()
    allowlist_path = args.allowlist or repo / "tools" / "determinism_allowlist.txt"
    allowlist = parse_allowlist(allowlist_path)
    allow_used = [False] * len(allowlist)

    files = []
    for glob in SCAN_GLOBS:
        matches = sorted(repo.glob(glob))
        if not matches:
            print(f"determinism_lint: scan glob matched nothing: {glob}", file=sys.stderr)
            return 1
        files.extend(matches)

    findings = []
    for path in files:
        rel = path.relative_to(repo).as_posix()
        for rule_id, rel_path, line_no, line, description in scan_file(repo, rel):
            allowed = False
            for idx, (a_rule, a_path, _just, _ln) in enumerate(allowlist):
                if a_rule == rule_id and a_path == rel_path:
                    allow_used[idx] = True
                    allowed = True
            if not allowed:
                findings.append((rule_id, rel_path, line_no, line, description))

    status = 0
    if findings:
        status = 1
        print(f"determinism_lint: {len(findings)} finding(s) on the report path:\n")
        for rule_id, rel_path, line_no, line, description in findings:
            print(f"  {rel_path}:{line_no}: [{rule_id}] {description}")
            print(f"      {line}")
        print(
            "\nFix the non-determinism, or — only after auditing that the construct\n"
            "cannot influence report bytes — add a justified entry to\n"
            f"{allowlist_path.relative_to(repo).as_posix()}."
        )

    stale = [e for e, used in zip(allowlist, allow_used) if not used]
    if stale:
        status = 1
        print("determinism_lint: stale allowlist entries (match no finding — delete them):")
        for rule_id, path, _just, line_no in stale:
            print(f"  {allowlist_path.name}:{line_no}: {rule_id} {path}")

    if status == 0:
        print(
            f"determinism_lint: clean — {len(files)} file(s), {len(RULES)} rules, "
            f"{len(allowlist)} audited allowlist entr{'y' if len(allowlist) == 1 else 'ies'}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
