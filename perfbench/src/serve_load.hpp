#pragma once
// serve_hot and serve_churn: an open-loop generator (one connection, a
// sender thread and a receiver thread) driving serve::Service over
// run_socket.

#include "common.hpp"

namespace perfbench {

[[nodiscard]] Result run_serve(const RunOptions& options, bool churn);

}  // namespace perfbench
