"""E8: the cost model must rank Query 5's rewritings like measurement does."""

from repro import ExecutionConfig, Mode
from repro.core.cost import Catalog, CostModel
from repro.workloads import query5_pullup, query5_pushdown

from .common import make_generator, trace_for

#: Large enough that the rewritings' asymptotic ordering is unambiguous.
E8_WINDOW = 400


def test_cost_model_ranks_like_measurement(benchmark):
    gen = make_generator()
    catalog = Catalog(
        distinct_counts={(f"link{i}", attr): est
                         for i in range(4)
                         for attr, est in
                         gen.estimated_distincts(E8_WINDOW).items()},
        premature_frequency=0.5,
    )
    model = CostModel(catalog)

    def measure():
        from repro import ContinuousQuery
        rows = []
        events = trace_for(E8_WINDOW)
        for tag, plan_fn in (("pull-up", query5_pullup),
                             ("push-down", query5_pushdown)):
            plan = plan_fn(gen, E8_WINDOW)
            predicted = model.estimate(plan).total
            query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
            result = query.run(iter(events))
            rows.append((tag, predicted, result.touches_per_tuple()))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    predicted_order = [t for t, p, _m in sorted(rows, key=lambda r: r[1])]
    measured_order = [t for t, _p, m in sorted(rows, key=lambda r: r[2])]
    assert predicted_order == measured_order
