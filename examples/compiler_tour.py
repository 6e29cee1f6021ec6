"""A tour of the LINVIEW compiler pipeline (Section 6's system).

Walks one program through every stage: source text -> AST -> Algorithm 1
triggers -> optimizer passes -> the lowered form sessions execute and
Octave / Spark code generation — printing the artifacts at each step.

Run:  python examples/compiler_tour.py
"""

from repro.expr import trigger_to_latex
from repro.compiler import (
    compile_program,
    generate_octave_trigger,
    generate_spark_trigger,
    optimize_trigger_chains,
    generate_python_trigger,
    optimize_trigger,
)
from repro.expr import count_nodes
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
    trigger = compile_program(program, dynamic_inputs=["X"])["X"]
    print(trigger)
    print("\nNote: dW references the materialized view W (Sherman-Morrison/")
    print("Woodbury, Example 4.3) — no n x n matrix is ever re-inverted.")

    print("\n=== 5. Optimizer (CSE + copy propagation + DCE) ===")
    optimized = optimize_trigger(trigger)
    before = sum(count_nodes(a.expr) for a in trigger.assigns)
    after = sum(count_nodes(a.expr) for a in optimized.assigns)
    print(optimized)
    print(f"\nassign-expression AST nodes: {before} -> {after}")

    print("\n=== 6. The lowered form (what a session loops over, or "
          "prints like this and exec-utes) ===")
    print(generate_python_trigger(optimized))

    print("=== 7. Generated Octave backend ===")
    print(generate_octave_trigger(optimized))

    print("=== 8. Generated Spark (Scala) backend ===")
    print(generate_spark_trigger(optimized))

    print("=== 9. Chain-ordered for concrete sizes (Section 5.1) ===")
    sized = optimize_trigger_chains(optimized, {"m": 4096, "n": 512, "p": 1})
    print(sized)
    print("\n(products re-associated by the matrix-chain DP for"
          " m=4096, n=512, p=1)")

    print("\n=== 10. The trigger as LaTeX (the paper's Example layout) ===")
    print(trigger_to_latex(optimized))


if __name__ == "__main__":
    main()
