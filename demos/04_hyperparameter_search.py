"""Two-stage hyperparameter search on a small synthetic problem.

Stage one proposes trial configurations with a tree-structured Parzen
estimator over the mixed search space (expansion order, coefficients,
output scales; every expansion is in the space's one basis family); stage
two refines each trial's continuous parameters with Adam on the exact
marginal-likelihood gradient. Trials are scored by average held-out
negative log predictive density; a median pruner stops a trial whose
first folds already score worse than the median of the finished trials.
"""

import numpy as np

from pcegp.data import Dataset, fit_scaler
from pcegp.gp import fit_precompute, predict_batch
from pcegp.kernels import KernelForm
from pcegp.optim import SearchSpace, run_search
from pcegp.poly import Basis
from pcegp.serialize import describe_model

rng = np.random.default_rng(7)
x = np.sort(rng.uniform(0.0, 1.0, 36))
y = np.sin(7.0 * x) * (1.0 - x) + 0.02 * rng.normal(size=36)
train = Dataset(x[:, None], y, ["x"], "y")

space = SearchSpace(
    kernel_forms=(KernelForm.se(), KernelForm.matern32()),
    basis=Basis.legendre01(),
    q_range=(0, 2),
    scale_range=(1e-2, 10.0),
    noise_fixed=1e-4,
)
print(f"search space: {space.n_parameters} slots over {space.n_kernels} kernels")

result = run_search(
    train, space, n_trials=12, n_initial=5, n_iterations=40, n_folds=4, seed=1
)

print(f"\n{len(result.history)} trials, best loss {result.best_loss:.4f}")
print("loss trace (stage marked r=random, g=guided; a pruned trial's loss")
print("is the mean of the folds it ran):")
for rec in result.history:
    mark = "r" if rec.stage == "random" else "g"
    pruned = f"  pruned after fold {rec.pruned_after}" if rec.pruned_after else ""
    print(f"  trial {rec.trial_index:2d} [{mark}] loss={rec.loss:10.4f}{pruned}")

# rebuild the winning model and look at what was learned
stack, noise = space.build_stack(result.best_theta, train.n_inputs)
model = fit_precompute(
    stack,
    noise,
    fit_scaler("min_max_per_column", train.inputs),
    fit_scaler("z_normalize", train.outputs),
    train.inputs,
    train.outputs,
)
means, _ = predict_batch(model, train.inputs)
print(f"\ntraining RMSE of winner: {np.sqrt(np.mean((means - y) ** 2)):.4f}")
print("\n" + describe_model(model))
