#!/usr/bin/env python3
"""List crate-internal `pub` items: `pub` that nothing outside its crate names.

For every crate under `crates/`, the scan reads each file of `src/` (not
`src/bin/`) up to the file's first `#[cfg(test)]` and collects each `pub`
item: a top-level or inherent-impl `fn`, `struct`, `enum`, `trait`, `type`,
`const` or `static` (`pub(crate)` and `pub use` are not items of this kind).
An item is named outside its crate when its identifier occurs as a whole word
in some Rust file outside the crate: another crate, the crate's own `src/bin/`,
`tests/` or `examples/` (each a separate target), the workspace's `tests/`,
`examples/` and `src/`, or `benchmark/`. Plain `//` comments are not read;
doc comments are, since their links and examples name items.

A flagged item should be `pub(crate)`, unless a public signature carries it
(rustc then refuses the demotion with E0446/E0365 or warns
`private_interfaces`). Those items are listed in `EXCEPTIONS`.

Run from the repository root:

    python3 scripts/pub_scan.py

It prints every flagged item, marking those in `EXCEPTIONS`, and exits 1 if
any flagged item is not an exception.
"""

import os
import re
import sys

# Flagged by the name scan, kept `pub` because a `pub` signature or a `pub`
# field that is used outside the crate carries them — or, for
# `crypto::Sha256`, because the crate re-exports it as its hash and its
# module's example runs it, and for `telemetry::Cells`, because every
# expansion of the exported `counter_block!` names it as `$crate::Cells`:
# `crate::Item` names.
EXCEPTIONS = {
    "assert::AssertError",
    "core::WorkItem",
    "crypto::MerkleError",
    "crypto::MerkleRoot",
    "crypto::MerkleSignature",
    "crypto::Sha256",
    "crypto::SimPkiRegistry",
    "federation::FlowTrace",
    "pap::AdminAction",
    "pap::AuditEntry",
    "pap::CatchUpReport",
    "pap::DelegationError",
    "pap::Hop",
    "pap::LoggedUpdate",
    "pap::PropagationReport",
    "pap::SyndicationNode",
    "pep::EnforcementRecord",
    "pep::ObligationHandler",
    "pep::PepBuilder",
    "pip::PipStats",
    "policy::AllOf",
    "policy::AnyOf",
    "policy::Conflict",
    "policy::ConflictAnalysis",
    "policy::KeyHasher",
    "policy::MatchOp",
    "policy::ObligationExpr",
    "policy::RuleRef",
    "policy::Shadowing",
    "rbac::RbacError",
    "simnet::Delivery",
    "telemetry::Cells",
    "telemetry::SpanGuard",
    "trust::Disclosure",
    "trust::Outcome",
    "wire::CodecError",
    "wire::SecureMessage",
    "wire::SecurityError",
    "wire::XmlishError",
}

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|async|unsafe|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|struct|enum|trait|type|const|static|union)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rust_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "target"]
        for name in filenames:
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def strip_plain_comments(text):
    # Drops `// ...` but keeps `///` and `//!`; a `//` inside a string
    # literal is rare enough in this tree that the scan ignores strings.
    return re.sub(r"(?<![/:])//(?![/!]).*", "", text)


def words_of(paths):
    names = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            names.update(WORD.findall(strip_plain_comments(f.read())))
    return names


def main():
    crates = sorted(
        d for d in os.listdir("crates") if os.path.isfile(os.path.join("crates", d, "Cargo.toml"))
    )
    shared = [p for top in ("tests", "examples", "src", "benchmark") for p in rust_files(top)]
    files_of = {c: list(rust_files(os.path.join("crates", c))) for c in crates}

    flagged = []
    for crate in crates:
        lib_dir = os.path.join("crates", crate, "src")
        bin_dir = os.path.join(lib_dir, "bin") + os.sep
        lib_files = [p for p in files_of[crate] if p.startswith(lib_dir + os.sep) and not p.startswith(bin_dir)]
        outside = shared + [p for p in files_of[crate] if p not in lib_files]
        outside += [p for other in crates if other != crate for p in files_of[other]]
        named = words_of(outside)
        for path in sorted(lib_files):
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    if line.lstrip().startswith("#[cfg(test)]"):
                        break
                    m = ITEM.match(line)
                    if m and m.group(2) not in named:
                        flagged.append((crate, path, lineno, m.group(1), m.group(2)))

    bad = 0
    for crate, path, lineno, kind, name in flagged:
        excepted = f"{crate}::{name}" in EXCEPTIONS
        print(f"{path}:{lineno}: pub {kind} {name}" + ("  (exception)" if excepted else ""))
        bad += not excepted
    if bad:
        print(f"{bad} crate-internal pub item(s): make them pub(crate), or list a"
              " public-signature type in EXCEPTIONS", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
