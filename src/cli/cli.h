/**
 * @file
 * The `counterminer` command-line tool, as a testable library entry
 * point: parse arguments, run the requested workflow, and accumulate
 * human-readable output into a string.
 *
 * The commands and the flags each one takes live in one table in
 * cli.cc; usage() renders it. A command rejects any flag it does not
 * declare, and every flag value is checked before the command runs.
 */

#ifndef CMINER_CLI_CLI_H
#define CMINER_CLI_CLI_H

#include <string>
#include <vector>

namespace cminer::cli {

/**
 * Run the CLI.
 *
 * @param args argv[1..] (command plus its arguments)
 * @param output receives everything the command printed
 * @return process exit code (0 on success, 1 on user error)
 */
int run(const std::vector<std::string> &args, std::string &output);

/** The usage/help text. */
std::string usage();

} // namespace cminer::cli

#endif // CMINER_CLI_CLI_H
