# Runs ${BINARY} with the ;-separated ${ARGS} and passes only when it
# exits 1 with a usage line on stderr, i.e. it refused the command line
# instead of starting. Used by the serve_ui_rejects_* ctests:
#   cmake -DBINARY=<path> "-DARGS=a;b" -P scripts/expect_usage_error.cmake
execute_process(COMMAND ${BINARY} ${ARGS}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR NOT err MATCHES "usage: ")
  message(FATAL_ERROR
    "expected exit 1 with a usage line for `${ARGS}`, got exit ${code}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
