"""Parallel Pauli measurement scheduling on the Tanner graph.

Edge-coloring the qubit/check Tanner graph assigns each controlled-Pauli a
time slot; Konig's theorem keeps bipartite colorings at the maximum degree.
When two checks share anticommuting letters an odd interleaving tangles
their ancillas, which one CZ untangles -- the tangling graph is colored the
same way (Misra-Gries, at most Delta + 1 colors).
"""

from adaptstab.prep import (
    MeasurementSchedule,
    build_code,
    builtin_code,
    build_tangling,
    edge_color_bipartite,
    synthesize_measurement_circuit,
    tanner_graph,
)


def main():
    code = build_code(["XXXX", "ZZZZ"], name="xz4")
    sched = edge_color_bipartite(tanner_graph(code))
    print(f"{code.name}: bipartite coloring uses {sched.num_colors} colors")
    print(f"  tangled check pair: {(0, 1) in build_tangling(sched).edges}")
    frag = synthesize_measurement_circuit(code)
    print(f"  fragment depth {frag.depth} (no CZ layer needed)")

    # force an odd interleaving of the X and Z ladders
    letters = {(q, 0): "X" for q in range(4)} | {(q, 1): "Z" for q in range(4)}
    odd = {(0, 0): 1, (1, 0): 2, (2, 0): 3, (3, 0): 4,
           (0, 1): 2, (1, 1): 3, (2, 1): 4, (3, 1): 1}
    tangled = MeasurementSchedule(odd, letters, 4)
    print(f"  forced schedule tangles the pair: {(0, 1) in build_tangling(tangled).edges}")
    frag = synthesize_measurement_circuit(code, schedule=tangled)
    print(f"  fragment depth {frag.depth} (CZ colors: {frag.cz_colors})")

    print()
    for name in ("steane", "toric(3)"):
        code = builtin_code(name)
        sched = edge_color_bipartite(tanner_graph(code))
        tg = build_tangling(sched)
        frag = synthesize_measurement_circuit(code)
        print(
            f"{name}: degree {tanner_graph(code).max_degree},"
            f" colors {sched.num_colors}, tangling edges {len(tg.edges)},"
            f" fragment depth {frag.depth}"
        )


if __name__ == "__main__":
    main()
