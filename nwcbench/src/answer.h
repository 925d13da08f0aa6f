// Decoding of served query answers, shared by the load generator (which
// decodes every answer as it arrives) and the answer checks.
#ifndef NWCBENCH_ANSWER_H_
#define NWCBENCH_ANSWER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "net/wire.h"

namespace nwcbench {

/// One decoded query answer.
struct Answer {
  bool ok = false;  ///< an OK response of the requested kind
  std::string why;  ///< what was wrong otherwise
  nwc::NwcResponse nwc;
  nwc::KnwcResponse knwc;
};

Answer DecodeAnswer(bool knwc, nwc::MsgType type, std::string_view body);

}  // namespace nwcbench

#endif  // NWCBENCH_ANSWER_H_
