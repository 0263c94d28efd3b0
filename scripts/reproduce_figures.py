#!/usr/bin/env python3
"""Emit the figure-reproduction tables as CSV files.

Writes one table per curve family into --outdir and prints the anchor numbers
(concurrences, violation thresholds, bound values) to stdout.  Rendering is
left to external tooling; every number comes from library calls.
"""

import argparse
import pathlib

import numpy as np

import factorlab as fl
from factorlab.cli import SweepSpec, render_table, run_sweep


def write_table(outdir, name, columns, table):
    path = outdir / name
    path.write_text(render_table(columns, table, "csv"))
    print(f"wrote {path} ({len(table[0])} rows)")


def write_sweep(outdir, name, spec):
    write_table(outdir, name, *run_sweep(spec))


def write_bound_curves(outdir, name, num=201):
    grid = np.linspace(0.0, 1.0, num).tolist()
    lower, upper = zip(*map(fl.verstraete_wolf_bounds, grid))
    write_table(outdir, name, ["C", "B_lower", "B_upper"], [grid, list(lower), list(upper)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figure_data")
    parser.add_argument("--num", type=int, default=101, help="grid points per sweep")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    # concurrence of the partially entangled pure family and its switched image
    write_sweep(
        outdir,
        "concurrence_switch.csv",
        SweepSpec(
            family="rho_theta", start=0.0, stop=np.pi / 2, num=args.num,
            outputs=["C", "C_after_u_switch"],
        ),
    )

    # traced GHZ family: the two optimal switches, the plain switch, mixedness
    write_sweep(
        outdir,
        "ghz_traced_switch.csv",
        SweepSpec(
            family="ghz_traced", start=0.0, stop=np.pi / 2, num=args.num,
            outputs=["C_u1", "C_u2", "C_best", "C_after_u_switch", "mixedness"],
        ),
    )

    # Gisin family at theta = 0.35: plain / filtered / switched concurrences,
    # Bell values, and purities (concurrence-versus-purity data)
    write_sweep(
        outdir,
        "gisin_family_theta035.csv",
        SweepSpec(
            family="gisin_compare", start=0.0, stop=1.0, num=args.num, theta=0.35,
            outputs=[
                "C_gisin", "C_filtered", "C_unitary",
                "B_gisin", "B_filtered", "B_unitary",
                "purity_gisin", "purity_filtered", "purity_unitary",
            ],
        ),
    )

    # Werner line: partial-transpose minimum and Bell value
    write_sweep(
        outdir,
        "werner_line.csv",
        SweepSpec(family="werner", start=0.0, stop=1.0, num=args.num,
                  outputs=["ppt", "bmax", "C", "purity"]),
    )

    # violation bounds versus concurrence
    write_bound_curves(outdir, "bell_bounds_vs_concurrence.csv", num=args.num)

    lam, theta = 0.8, 0.35
    thresholds = fl.gisin_thresholds(theta)
    plain = fl.gisin(lam, theta)
    filtered = fl.apply_filter(plain, fl.gisin_filter(theta))
    switched = fl.gisin_unitary_family(lam, theta)
    print()
    print(f"anchors at lambda = {lam}, theta = {theta}:")
    print(f"  concurrence plain/filtered/switched : "
          f"{fl.concurrence(plain):.4f} / {fl.concurrence(filtered):.4f} / "
          f"{fl.concurrence(switched):.4f}")
    print(f"  violation thresholds (plain/filtered): "
          f"{thresholds.unfiltered:.4f} / {thresholds.filtered:.4f}")
    print(f"  Bell values plain/filtered/switched  : "
          f"{fl.horodecki_bmax(plain):.4f} / {fl.horodecki_bmax(filtered):.4f} / "
          f"{fl.horodecki_bmax(switched):.4f}")


if __name__ == "__main__":
    main()
