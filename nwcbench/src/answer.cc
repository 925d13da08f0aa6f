#include "answer.h"

namespace nwcbench {

Answer DecodeAnswer(bool knwc, nwc::MsgType type, std::string_view body) {
  Answer answer;
  const nwc::MsgType expected = knwc ? nwc::MsgType::kKnwcResponse : nwc::MsgType::kNwcResponse;
  if (type != expected) {
    nwc::Status status;
    if (type == nwc::MsgType::kError && nwc::DecodeStatusBody(body, &status).ok()) {
      answer.why = "error frame: " + status.ToString();
    } else {
      answer.why = "unexpected frame type " + std::to_string(static_cast<int>(type));
    }
    return answer;
  }
  const nwc::Status decoded = knwc ? nwc::DecodeKnwcResponse(body, &answer.knwc)
                                   : nwc::DecodeNwcResponse(body, &answer.nwc);
  if (!decoded.ok()) {
    answer.why = "undecodable response: " + decoded.ToString();
    return answer;
  }
  const nwc::Status& status = knwc ? answer.knwc.status : answer.nwc.status;
  if (!status.ok()) {
    answer.why = "status " + status.ToString();
    return answer;
  }
  answer.ok = true;
  return answer;
}

}  // namespace nwcbench
