# Golden-diff harness for hetparc: runs the full single-program flow on
# tests/data/pipeline.c and byte-compares stdout and every emitted artifact
# against the goldens captured from the pre-pipeline driver. Guards the
# refactor invariant that staging the compiler changed NOTHING about what a
# single compile produces.
#
# Expects: -DHETPARC=<binary> -DSOURCE=<source.c> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
# Optional: -DJOBS=<n> plans on an n-worker thread pool; the artifacts must
# still match the same goldens byte for byte.
# Optional: -DBATCH=1 compiles the source through the batch driver
# (`--programs`) instead, drops its `== <file> ==` header line and compares
# stdout only: a program's batch report must equal its single-program output.
file(MAKE_DIRECTORY "${WORK_DIR}")

set(jobs_args)
if(DEFINED JOBS)
  set(jobs_args --jobs "${JOBS}")
endif()

if(BATCH)
  execute_process(
    COMMAND "${HETPARC}" --programs "${SOURCE}" --preset A --simulate ${jobs_args}
    OUTPUT_VARIABLE batch_stdout
    RESULT_VARIABLE exit_code)
  string(REGEX REPLACE "^== [^\n]* ==\n" "" batch_stdout "${batch_stdout}")
  file(WRITE "${WORK_DIR}/pipeline.stdout" "${batch_stdout}")
  set(artifacts stdout)
else()
  execute_process(
    COMMAND "${HETPARC}" --preset A --simulate ${jobs_args}
            --emit-annotated "${WORK_DIR}/pipeline.annotated.c"
            --emit-parspec "${WORK_DIR}/pipeline.parspec"
            --emit-premap "${WORK_DIR}/pipeline.premap"
            --emit-dot "${WORK_DIR}/pipeline.dot"
            "${SOURCE}"
    OUTPUT_FILE "${WORK_DIR}/pipeline.stdout"
    RESULT_VARIABLE exit_code)
  set(artifacts stdout annotated.c parspec premap dot)
endif()
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "hetparc exited with ${exit_code}")
endif()

foreach(artifact ${artifacts})
  if(NOT EXISTS "${GOLDEN_DIR}/pipeline.${artifact}")
    message(FATAL_ERROR "golden file missing: ${GOLDEN_DIR}/pipeline.${artifact}")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${GOLDEN_DIR}/pipeline.${artifact}" "${WORK_DIR}/pipeline.${artifact}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "pipeline.${artifact} differs from the golden copy "
                        "(${GOLDEN_DIR}/pipeline.${artifact} vs ${WORK_DIR}/pipeline.${artifact})")
  endif()
endforeach()
