#include "core/solve_query.h"

#include <exception>

namespace rpg::core {

Result<RePagerResult> SolveQuery(const BatchQuery& query,
                                 QueryScratch* scratch) {
  // Request trace: the solving thread is the only one touching the
  // query's context during the solve (the hand-off through the solve
  // queue orders the submitter's earlier span writes before ours).
  obs::TraceContext* trace = query.trace.get();
  uint64_t solve_start = trace ? trace->NowNs() : 0;
  Result<RePagerResult> r = Status::Internal("solve not run");
  try {
    // Epoch pinning: holding `query.repager` keeps that epoch's whole
    // substrate alive for the duration of the solve.
    r = query.repager->Generate(query.query, query.options, scratch);
  } catch (const std::exception& e) {
    // The caller waits on this result; an exception escaping a solver
    // thread would end the process instead.
    r = Status::Internal(std::string("solve threw: ") + e.what());
  }
  if (trace) {
    trace->AddSpan(obs::Stage::kSolve, solve_start,
                   trace->NowNs() - solve_start, r.ok() ? 1 : 0);
    if (r.ok()) {
      // The pipeline spans are clocked from Generate's own start;
      // rebasing them onto the solve span's start lines the whole
      // request trace up on one axis.
      trace->AppendRebased(r->stages, solve_start);
      trace->AttachSteinerStats(r->steiner_stats);
    }
  }
  return r;
}

}  // namespace rpg::core
