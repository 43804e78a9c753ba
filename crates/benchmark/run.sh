#!/bin/sh
# Entry point of the repo benchmark (the `command` of /BENCHMARK.json):
# builds `sb-benchmark` and `snowboard-cli` in release mode from the checkout
# it is started in, then runs the benchmark with the arguments given.
#
# The workspace depends on crates.io packages and the benchmark must build
# where there is no network. When cargo cannot resolve them offline (no
# registry cache), the build is pointed at the API-compatible stand-ins in
# crates/benchmark/standins instead; see README.md, "Building offline".
set -eu

if [ ! -f Cargo.toml ] || [ ! -f crates/benchmark/Cargo.toml ]; then
    echo "run.sh: start me from the root of a full checkout (Cargo.toml and crates/benchmark needed)" >&2
    exit 2
fi

build() {
    cargo build --release --offline --quiet -p sb-benchmark -p sb-cli "$@"
}

if ! build 2>/dev/null; then
    build --config 'source.crates-io.replace-with="sb-standins"' \
          --config 'source.sb-standins.directory="crates/benchmark/standins"' >&2
fi

# Not `exec`: the benchmark reads its children's peak RSS (`hunt-e2e`), and a
# process exec'ed from this shell would inherit the finished cargo as a child.
"${CARGO_TARGET_DIR:-target}/release/sb-benchmark" "$@" &
child=$!
trap 'kill "$child" 2>/dev/null' INT TERM
wait "$child"
