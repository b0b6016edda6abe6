"""The CSV files written row by row through csv.writer: a test oracle.

This was `GridFunction.write_csv` and the `branches.csv` writer of
`bifrac sweep` before both built their text in one string.  The one-write
files must hold exactly these bytes.
"""

import csv


def write_grid_function(u, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(u.grid.nodes, u.values):
            writer.writerow([f"{x:.17g}", f"{v:.17g}"])


def write_branches(points, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "n_found", "sup_minimal", "sup_second"])
        for pt in points:
            writer.writerow(
                [f"{pt.lam:.17g}", pt.n_found, f"{pt.sup_minimal:.17g}", f"{pt.sup_second:.17g}"]
            )
