// The `pdt` commands. Each takes the arguments that follow `pdt` (argv[0]
// is the command name) and returns the exit code of the suite convention
// in common/cli.hpp.
#pragma once

namespace pdt::tools {

int report_command(int argc, char** argv);  ///< report/report_cmd.cpp
int diff_command(int argc, char** argv);    ///< diff/diff_cmd.cpp
int replay_command(int argc, char** argv);  ///< replay/replay_cmd.cpp
int trend_command(int argc, char** argv);   ///< trend/trend_cmd.cpp
int tree_command(int argc, char** argv);    ///< tree/tree_cmd.cpp

}  // namespace pdt::tools
