"""Exporting rigorous rectangle coverings for plots.

Every figure the package supports is a set of axis-aligned rectangles that
provably covers the object drawn: the images of the domain boundary under
the inner compositions (the domain-extension picture), or graphs of the
certified functions, extended beyond the disc by unwinding the fixed-point
and eigenproblem relations recursively.  The CSV output plots with any
tool; matplotlib sketch at the bottom.

Each covering prepares its balls once for pointwise evaluation in exact
integers (balls.point_evaluator) and evaluates every rectangle from that,
the functional equations included, in integer boxes.  The whole script,
pipeline included, takes about 0.4 s on a 2-core Xeon VM with Python 3.11.
"""

from pathlib import Path

from renormcert import run_pipeline, RunConfig
from renormcert.pipeline import certified_balls, emit_plot_covering, write_covering_csv
from renormcert.rounding import RoundingContext

out = Path("covering_out")
cfg = RunConfig(degree=20)     # its precision follows the degree: 20 digits
result = run_pipeline(cfg)
ctx = RoundingContext(cfg.precision)
# each certificate's solution ball: centred on its x0, it holds the Newton
# step Phi(x0) + B(0, kappa r) (Certificate.solution_ball)
balls = certified_balls(ctx, result)

out.mkdir(exist_ok=True)
for figure, subdivisions in [
    ("fig1", 256),    # boundary + both composed images
    ("fig2a", 100),   # fixed-point function on the real section
    ("fig2b", 100),   # the even original on the preimage interval
    ("fig2c", 100),   # extended domain via the fixed-point relation
    ("fig3a", 100),   # parameter-scaling eigenfunction
    ("fig4a", 100),   # noise-scaling eigenfunction, extended
]:
    rows = emit_plot_covering(ctx, figure, subdivisions, balls)
    write_covering_csv(out / f"{figure}.csv", rows)
    print(f"{figure}: {len(rows)} rectangles -> {out / f'{figure}.csv'}")

print("""
to draw, e.g.:

    import matplotlib.pyplot as plt, csv
    fig, ax = plt.subplots()
    for row in csv.DictReader(open("covering_out/fig2a.csv")):
        x0, x1 = float(row["x_lo"]), float(row["x_hi"])
        y0, y1 = float(row["y_lo"]), float(row["y_hi"])
        ax.add_patch(plt.Rectangle((x0, y0), x1 - x0, y1 - y0, fill=False))
    ax.autoscale_view(); plt.show()
""")
