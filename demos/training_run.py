"""Train the weight by flipping bits until it matches the optimum.

Mispredicted examples move the weight: a missed positive pulls it toward
the input by flipping disagreeing bits, a false positive pushes it away by
flipping agreeing ones. The flip count is max(1, floor(lr * candidates)).
Training accepts the optimal weight or its bitwise complement, since both
encode the same measurement behavior.
"""

from qperc import PerceptronConfig, TrainConfig, generate_dataset, train

OPTIMAL_WEIGHT = 12

dataset = generate_dataset(OPTIMAL_WEIGHT, PerceptronConfig(n=2))
config = TrainConfig(
    learning_rate=0.5,
    max_epochs=50,
    seed=5,
    convergence_mode="functional",
)
result = train(dataset, OPTIMAL_WEIGHT, config)

print(f"converged     : {result.converged}")
print(f"final weight  : {result.final_weight}")
print(f"epochs run    : {result.epochs_run}")
print(f"trace length  : {len(result.trace)} steps\n")

print("the update steps (correct predictions omitted):")
print("epoch  value  p1     action             flips        weight")
for step in result.trace:
    if step.action == "none":
        continue
    print(
        f"{step.epoch:5d}  {step.example_value:5d}  {step.p1:.2f}   "
        f"{step.action:<17s}  {str(step.flipped_positions):<11s}  "
        f"{step.weight_before} -> {step.weight_after}"
    )

print("\nconvergence rates over 40 fresh seeds:")
converged = sum(
    train(
        dataset,
        OPTIMAL_WEIGHT,
        TrainConfig(
            learning_rate=0.5,
            max_epochs=50,
            seed=seed,
            convergence_mode="functional",
        ),
    ).converged
    for seed in range(40)
)
print(f"  {converged}/40 runs reach the optimum within 50 epochs")
