"""A tour of the LINVIEW compiler pipeline (Section 6's system).

Walks one program through every stage: source text -> AST -> Algorithm 1
triggers -> the lowered form sessions execute (identical kernel records
merged) and Octave / Spark code generation — printing the artifacts at
each step.

Run:  python examples/compiler_tour.py
"""

from repro.compiler import (
    UPDATE_WIDTH,
    compiled_program,
    generate_octave_trigger,
    generate_python_trigger,
    generate_spark_trigger,
    optimize_trigger_chains,
)
from repro.frontend import parse_program, tokenize

SOURCE = """
# Ordinary least squares with an explicitly materialized inverse
input X(m, n);
input Y(m, p);
Z := X' * X;
W := inv(Z);
C := X' * Y;
beta := W * C;
output beta;
"""


def main() -> None:
    print("=== 1. Source ===")
    print(SOURCE)

    print("=== 2. Tokens (first 12) ===")
    for token in tokenize(SOURCE)[:12]:
        print(" ", token)

    program = parse_program(SOURCE)
    print("\n=== 3. Parsed program (AST) ===")
    print(program)

    print("\n=== 4. Algorithm 1: trigger for updates to X ===")
    # Printed at a concrete width, as ``repro compile --rank 1`` prints.
    compiled = compiled_program(program, 1)
    trigger = compiled.triggers["X"]
    print(trigger)
    print("\nNote: dW references the materialized view W (Sherman-Morrison/")
    print("Woodbury, Example 4.3) — no n x n matrix is ever re-inverted.")
    print("Sessions and the planner share one compile at the symbolic")
    print(f"width {UPDATE_WIDTH}, which each session binds to its rank.")

    print("\n=== 5. The lowered form (what a session loops over, or "
          "prints like this and exec-utes) ===")
    lowered = compiled.lowered("X")
    print(generate_python_trigger(lowered))
    print(f"{len(lowered.ops)} records, {len(lowered.applies)} applies "
          "(identical pure records merged)\n")

    print("=== 6. Generated Octave backend ===")
    print(generate_octave_trigger(trigger))

    print("=== 7. Generated Spark (Scala) backend ===")
    print(generate_spark_trigger(trigger))

    print("=== 8. Chain-ordered for concrete sizes (Section 5.1) ===")
    sized = optimize_trigger_chains(trigger, {"m": 4096, "n": 512, "p": 1})
    print(sized)
    print("\n(products re-associated by the matrix-chain DP for"
          " m=4096, n=512, p=1)")


if __name__ == "__main__":
    main()
