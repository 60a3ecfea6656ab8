# Runs one command and checks its exact exit code and its stderr. A plain
# add_test can only require "nonzero" (WILL_FAIL) or an output regex, not
# a specific exit code.
#
# Expects: -DPROGRAM=<binary> -DARGS=<space-separated arguments>
#          -DEXIT_CODE=<n> -DSTDERR_REGEX=<regex>
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_QUIET
                ERROR_VARIABLE stderr_text
                RESULT_VARIABLE exit_code)
if(NOT exit_code STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "exit code ${exit_code}, expected ${EXIT_CODE}; stderr:\n${stderr_text}")
endif()
if(NOT stderr_text MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${stderr_text}")
endif()
