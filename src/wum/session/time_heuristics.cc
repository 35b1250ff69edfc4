#include "wum/session/time_heuristics.h"

namespace wum {

template class FoldSessionizer<DurationRule>;
template class FoldSessionizer<PageStayRule>;

}  // namespace wum
