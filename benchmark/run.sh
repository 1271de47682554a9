#!/usr/bin/env bash
# The one command: builds the benchmark from source and runs it.
#   benchmark/run.sh                       = all --seed 42
#   benchmark/run.sh all --smoke           quick pass, references still checked
#   benchmark/run.sh bless                 regenerate benchmark/expected/
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then set -- all --seed 42; fi
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
