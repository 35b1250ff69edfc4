#include "wum/session/navigation_heuristic.h"

namespace wum {

template class FoldSessionizer<NavigationRule>;

}  // namespace wum
