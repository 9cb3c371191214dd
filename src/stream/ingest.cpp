#include "stream/ingest.hpp"

namespace scv {

bool ingest_trace(TraceStreamReader& reader, StreamService::Producer producer,
                  std::uint32_t stream, std::string& error) {
  if (!reader.ok()) {
    error = reader.error();
    return false;
  }
  if (reader.header().has_base()) {
    // An excerpt starts from a mid-run snapshot; the service's Open
    // event starts checkers from the initial state only.
    error = "trace carries an excerpt base snapshot; replay it with "
            "scv_check instead of re-ingesting";
    return false;
  }
  producer.open(stream, reader.header().checker);
  RunStep step;
  while (reader.next(step)) {
    for (const Symbol& sym : step.symbols) producer.symbol(stream, sym);
    producer.step_end(stream);
  }
  producer.close(stream);
  if (!reader.ok()) {
    error = reader.error();
    return false;
  }
  return true;
}

}  // namespace scv
