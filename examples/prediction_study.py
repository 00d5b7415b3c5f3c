"""Head-movement prediction study: who can say where you'll look?

Run:  python examples/prediction_study.py

Generates a viewer population with the stochastic head-movement model,
trains the Markov tile-transition predictor on half of it, and scores
every predictor on the held-out viewers — orientation error by horizon,
and the recall/overhead of the tile sets the streamer would ship.
"""

import math

from repro import TileGrid, Viewport
from repro.bench.harness import format_table
from repro.predict.evaluate import orientation_error_by_horizon, tile_prediction_scores
from repro.predict.predictors import (
    DeadReckoningPredictor,
    MarkovPredictor,
    OraclePredictor,
    StaticPredictor,
)
from repro.workloads.users import ViewerPopulation

GRID = TileGrid(4, 8)
HORIZONS = [0.5, 1.0, 2.0]
DURATION = 40.0


def main() -> None:
    population = ViewerPopulation(seed=21)
    train_users, test_users = population.split(8)
    training = [population.trace(user, DURATION, rate=10.0) for user in train_users]
    held_out = [population.trace(user, DURATION, rate=10.0) for user in test_users]

    markov = MarkovPredictor(GRID)
    markov.train(training)
    predictors = [
        ("static", StaticPredictor()),
        ("dead-reckoning", DeadReckoningPredictor()),
        ("markov (trained)", markov),
    ]

    error_rows = []
    for label, predictor in predictors + [("oracle", OraclePredictor(held_out[0]))]:
        accumulated = {horizon: 0.0 for horizon in HORIZONS}
        for trace in held_out:
            instance = OraclePredictor(trace) if label == "oracle" else predictor
            for horizon, value in orientation_error_by_horizon(
                instance, trace, HORIZONS
            ).items():
                accumulated[horizon] += value / len(held_out)
        error_rows.append(
            {"predictor": label}
            | {
                f"err@{horizon}s (deg)": round(math.degrees(accumulated[horizon]), 1)
                for horizon in HORIZONS
            }
        )
    print(format_table("orientation error by horizon", error_rows))

    tile_rows = []
    viewport = Viewport()
    for label, predictor in predictors:
        margin = 0 if label.startswith("markov") else 1
        recall = precision = tiles = 0.0
        for trace in held_out:
            scores = tile_prediction_scores(
                predictor, trace, GRID, viewport, horizon=1.0, margin=margin
            )
            recall += scores.recall / len(held_out)
            precision += scores.precision / len(held_out)
            tiles += scores.mean_predicted / len(held_out)
        tile_rows.append(
            {
                "predictor": label,
                "recall_%": round(100 * recall, 1),
                "precision_%": round(100 * precision, 1),
                "tiles of 32": round(tiles, 1),
            }
        )
    print()
    print(format_table("tile-set prediction at a 1 s horizon", tile_rows))
    print(
        "\nReading: recall is the fraction of what the viewer actually saw\n"
        "that was shipped in high quality (QoE); tile count is what those\n"
        "bytes cost. The trained Markov model buys the best trade-off;\n"
        "holding the current pose ('static') is a strong baseline, which\n"
        "is why sub-second delivery windows matter."
    )


if __name__ == "__main__":
    main()
