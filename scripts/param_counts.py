"""Print trainable-parameter counts for the three classifiers at full scale.

Reference budgets are the published sizes these architectures are usually
quoted at (21.13M / 28.2M / 52.3M). The CNN-LSTM lands close; the two
transformer variants come in smaller because our defaults keep the factorized
ViViT encoder narrow (embed 128) and the tiny Swin stage plan at (2,2,4,2)
blocks. Run with --model to inspect one architecture's per-tensor breakdown.
"""

from argparse import ArgumentParser

from vidmood.models import MODEL_NAMES, build_model, default_config

BUDGETS = {"vivit": 21.13e6, "swin3d_t": 28.2e6, "cnn_lstm": 52.3e6}


def breakdown(model) -> list[tuple[str, tuple, int]]:
    return [(name, p.shape, p.size) for name, p in model.named_parameters()]


def main() -> None:
    parser = ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", choices=MODEL_NAMES, default=None,
                        help="also print a per-tensor breakdown for this model")
    parser.add_argument("--classes", type=int, default=2)
    args = parser.parse_args()

    print(f"{'model':10s} {'params':>14s} {'budget':>10s} {'delta':>8s}")
    for name in MODEL_NAMES:
        model = build_model(name, default_config(name, classes=args.classes), seed=0)
        n = model.num_parameters()
        budget = BUDGETS[name]
        print(f"{name:10s} {n:>14,d} {budget / 1e6:>9.2f}M {100 * (n - budget) / budget:>+7.1f}%")
        if args.model == name:
            print()
            for pname, shape, size in breakdown(model):
                print(f"  {pname:55s} {str(shape):>22s} {size:>12,d}")
            print()


if __name__ == "__main__":
    main()
