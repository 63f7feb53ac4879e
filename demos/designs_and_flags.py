"""The three flag geometries and their quotient-complete graphs.

A flag is an incident (point, block) pair of a design.  Joining flags
by one of the geometric rules gives a graph on which the design's
automorphism group acts, with the fibers over points as the invariant
partition.  Three geometries carry the full machinery: the binary
affine hyperplane designs, the 3-(22,6,1) design, and the 3-(12,6,2)
design.  The script prints the shapes the rules produce and the
stabilizer orbit tables that pin down the incidence pattern.

    python3 demos/designs_and_flags.py
"""

from symquot import (
    COMMON_TWO_POINTS,
    DISJOINT_BLOCKS,
    SAME_BLOCK,
    ag_design,
    agl,
    design_3_12_6_2,
    flag_graph,
    mathieu,
    orbit_length_check,
    recognize_structure,
    steiner_3_22_6,
)


def shape_gallery() -> None:
    rows = [
        ("hyperplanes d=3", ag_design(3), agl(3)),
        ("hyperplanes d=4", ag_design(4), agl(4)),
        ("3-(22,6,1)", steiner_3_22_6(), mathieu("M22")),
        ("3-(12,6,2)", design_3_12_6_2(), mathieu("M11on12")),
    ]
    print("rule = same block (flags sharing their block):")
    for name, D, G in rows:
        T = flag_graph(D, G, SAME_BLOCK)
        print(f"  {name:<18} {T.graph.n:>4} flags  {recognize_structure(T.graph)}")
    print("\nrule = disjoint blocks:")
    for name, D, G in rows:
        if name == "3-(22,6,1)":
            continue  # the 22-point disjoint rule needs its own refinement
        T = flag_graph(D, G, DISJOINT_BLOCKS)
        print(f"  {name:<18} {T.graph.n:>4} flags  {recognize_structure(T.graph)}")
    print("\nrule = blocks sharing two points:")
    for name, D, G in rows:
        T = flag_graph(D, G, COMMON_TWO_POINTS)
        print(f"  {name:<18} {T.graph.n:>4} flags  {recognize_structure(T.graph)}")


def orbit_tables() -> None:
    print("\nStabilizer orbit lengths on a neighbouring fiber")
    print("(incident = the block class containing the fixed flag's block):")
    for name, D, G in (
        ("hyperplanes d=3", ag_design(3), agl(3)),
        ("3-(22,6,1)", steiner_3_22_6(), mathieu("M22")),
        ("3-(12,6,2)", design_3_12_6_2(), mathieu("M11on12")),
    ):
        res = orbit_length_check(flag_graph(D, G, SAME_BLOCK))
        inc = res["incident"]["orbit_lengths"]
        non = res["non_incident"]["orbit_lengths"]
        ok = "ok" if res["match"] else "MISMATCH"
        print(f"  {name:<18} incident {inc}  non-incident {non}  [{ok}]")


if __name__ == "__main__":
    shape_gallery()
    orbit_tables()
